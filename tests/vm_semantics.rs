//! Resource-cap and cancellation semantics of the bytecode VM, as a
//! table mirroring `tests/deadline_semantics.rs`: the VM must hit the
//! **exact same** `MachineError` classes, with the same payloads, at the
//! same execution positions as the tree-walker — and a cancelled
//! execution must leave nothing behind (post-cancel re-verification).
//!
//! | cap             | hit                               | not hit            |
//! |-----------------|-----------------------------------|--------------------|
//! | fuel            | `FuelExhausted` at the same step  | output = reference |
//! | memory          | `MemoryCapExceeded`, same payload | output = reference |
//! | cancel (token)  | `Cancelled`, same reason          | output = reference |
//! | wall (service)  | `degraded`, exit 1, not retried   | `ok`, exit 0       |
//!
//! A second table holds `SPECULATIVE` loops to one behaviour on every
//! backend: on real threads (both engines × static / dynamic / stealing ×
//! 2, 3 and 8 threads) the output is the serial program's and `cycles`
//! and the PD verdicts are the simulated machine's — whether the lanes'
//! work is committed (pass) or thrown away for the in-order run (a failed
//! verdict, a lane that faulted on a stale value, fuel, `STOP`).

mod common;

use polaris::core::PassOptions;
use polaris::{Engine, MachineConfig, Program};
use polaris_machine::{run_with_state, MachineError};
use polarisd::proto::{Request, Status};
use polarisd::service::{Service, ServiceConfig};
use std::time::Duration;

const SRC: &str = "program caps\n\
                   real v(64)\n\
                   s = 0.0\n\
                   do i = 1, 64\n\
                   \x20 v(i) = i * 2.0\n\
                   end do\n\
                   do i = 1, 64\n\
                   \x20 s = s + v(i)\n\
                   end do\n\
                   print *, s\n\
                   end\n";

fn compiled() -> Program {
    common::compiled(SRC, "caps")
}

fn cfg(engine: Engine) -> MachineConfig {
    MachineConfig::serial().with_engine(engine)
}

fn reference_output(engine: Engine) -> Vec<String> {
    polaris_machine::run(&compiled(), &cfg(engine)).unwrap().output
}

const ENGINES: [Engine; 2] = [Engine::Vm, Engine::TreeWalk];

// ---- fuel ------------------------------------------------------------

/// The exact fuel boundary — the smallest budget under which the program
/// completes — must be the same number for both engines: `Step` is
/// emitted at every statement boundary, so the VM charges fuel at the
/// same program points the tree-walker does.
#[test]
fn fuel_boundary_is_the_same_step_count_in_both_engines() {
    let program = compiled();
    let vm = fuel_boundary(&program, &cfg(Engine::Vm));
    let tree = fuel_boundary(&program, &cfg(Engine::TreeWalk));
    assert_eq!(vm, tree, "engines disagree on the exact fuel-exhaustion step");
}

/// The smallest fuel budget under which `program` completes on `cfg`, by
/// bisection; every budget tried below it must be `FuelExhausted`
/// carrying that budget.
fn fuel_boundary(program: &Program, cfg: &MachineConfig) -> u64 {
    let (mut lo, mut hi) = (1u64, 1_000_000u64);
    assert!(polaris_machine::run(program, &cfg.clone().with_fuel(hi)).is_ok());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match polaris_machine::run(program, &cfg.clone().with_fuel(mid)) {
            Ok(_) => hi = mid,
            Err(MachineError::FuelExhausted { limit }) => {
                assert_eq!(limit, mid);
                lo = mid + 1;
            }
            Err(other) => panic!("unexpected error class at fuel {mid}: {other}"),
        }
    }
    lo
}

/// Fuel means the same thing on every backend: the smallest budget
/// under which a DOALL with a reduction, a conditional body and an inner
/// serial loop completes is one number — the serial step count — on the
/// serial machine, the simulated multiprocessor and real threads under
/// every schedule, run after run, and one step less is `FuelExhausted`
/// carrying that limit. (Threads count their own steps and the master
/// settles the total at the join, so no interleaving can move it.)
#[test]
fn fuel_boundary_is_the_same_step_count_on_every_backend() {
    use polaris_machine::Schedule;
    let src = "program fuelpar\n\
               real a(192)\n\
               s = 0.0\n\
               !$polaris doall private(J) reduction(+:S)\n\
               do i = 1, 192\n\
               \x20 a(i) = i * 1.0\n\
               \x20 if (mod(i, 3) == 0) then\n\
               \x20   a(i) = a(i) + 1.0\n\
               \x20 end if\n\
               \x20 do j = 1, 4\n\
               \x20   s = s + a(i) * j\n\
               \x20 end do\n\
               end do\n\
               print *, s\n\
               end\n";
    let program = polaris_ir::parse(src).unwrap();
    let serial = fuel_boundary(&program, &MachineConfig::serial());
    let mut backends = vec![MachineConfig::challenge_8()];
    for procs in [2, 8] {
        for schedule in
            [Schedule::Static, Schedule::Dynamic { chunk: 4 }, Schedule::Stealing { chunk: 4 }]
        {
            backends.push(MachineConfig::threaded(procs, schedule));
        }
    }
    for cfg in &backends {
        for repetition in 0..3 {
            let what = format!("{:?} x {} {:?}, repetition {repetition}", cfg.exec_mode, cfg.procs, cfg.schedule);
            assert_eq!(fuel_boundary(&program, cfg), serial, "{what}");
            let short = serial - 1;
            match polaris_machine::run(&program, &cfg.clone().with_fuel(short)) {
                Err(MachineError::FuelExhausted { limit }) => assert_eq!(limit, short, "{what}"),
                other => panic!("{what}: one step short must exhaust the fuel, got {other:?}"),
            }
        }
    }
}

/// A DOALL whose trip count passes the analytic pre-check but whose
/// inner loops overrun the budget terminates with `FuelExhausted` on
/// threads: at 2 a lane's own count runs out mid-lane, at 8 every lane
/// stays within the budget and the total settled at the join does not.
#[test]
fn inner_loop_overrunning_the_budget_is_fuel_exhausted_on_threads() {
    use polaris_machine::Schedule;
    let src = "program overrun\n\
               real a(8)\n\
               !$polaris doall private(J)\n\
               do i = 1, 8\n\
               \x20 do j = 1, 100\n\
               \x20   a(i) = a(i) + 1.0\n\
               \x20 end do\n\
               end do\n\
               print *, a(1)\n\
               end\n";
    let program = polaris_ir::parse(src).unwrap();
    for procs in [2, 8] {
        let cfg = MachineConfig::threaded(procs, Schedule::Static).with_fuel(500);
        match polaris_machine::run(&program, &cfg) {
            Err(MachineError::FuelExhausted { limit: 500 }) => {}
            other => panic!("{procs} threads: expected FuelExhausted, got {other:?}"),
        }
    }
}

#[test]
fn fuel_hit_is_the_exact_class_in_both_engines() {
    for engine in ENGINES {
        let err = polaris_machine::run(&compiled(), &cfg(engine).with_fuel(10))
            .expect_err("10 steps cannot run this program");
        assert!(
            matches!(err, MachineError::FuelExhausted { limit: 10 }),
            "{engine:?}: {err}"
        );
    }
}

#[test]
fn fuel_not_hit_output_matches_the_reference_in_both_engines() {
    for engine in ENGINES {
        let out = polaris_machine::run(&compiled(), &cfg(engine).with_fuel(2_000_000))
            .unwrap()
            .output;
        assert_eq!(out, reference_output(engine), "{engine:?}");
    }
}

// ---- iteration space --------------------------------------------------

/// A loop's iteration space is arithmetic, not a vector: two billion
/// trips whose body `STOP`s on the sixth finish at once with no fuel
/// limit to save them, and print what the first six iterations computed.
#[test]
fn huge_trip_count_with_an_early_stop_needs_no_fuel_in_both_engines() {
    let early = "program early\n\
                 integer i, s\n\
                 s = 0\n\
                 do i = 1, 2000000000\n\
                 \x20 s = s + i\n\
                 \x20 if (i == 6) then\n\
                 \x20   print *, s\n\
                 \x20   stop\n\
                 \x20 end if\n\
                 end do\n\
                 print *, -1\n\
                 end\n";
    let program = polaris_ir::parse(early).unwrap();
    for engine in ENGINES {
        let ran = polaris_machine::run(&program, &cfg(engine)).unwrap();
        assert_eq!(ran.output, ["21"], "{engine:?}");
    }
}

/// The F77 exit value of a loop that ends at `i64::MAX` wraps like every
/// other integer operation of the machine, in both engines, instead of
/// overflowing (a panic in a debug build).
#[test]
fn loop_bounded_by_i64_max_wraps_its_exit_value_in_both_engines() {
    let edge = "program edge\n\
                integer i, s\n\
                s = 0\n\
                do i = 9223372036854775806, 9223372036854775807\n\
                \x20 s = s + 1\n\
                end do\n\
                print *, s, i\n\
                end\n";
    let program = polaris_ir::parse(edge).unwrap();
    for engine in ENGINES {
        let ran = polaris_machine::run(&program, &cfg(engine)).unwrap();
        assert_eq!(ran.output, ["2 -9223372036854775808"], "{engine:?}");
    }
}

// ---- in-stream loops ---------------------------------------------------

/// Everything a run returns — output, `cycles`, the per-loop table, the
/// final memory — or its error, for comparison between engines.
type Outcome = Result<(Vec<String>, u64, String, polaris_machine::StateDump), MachineError>;

fn outcome(program: &Program, cfg: &MachineConfig) -> Outcome {
    run_with_state(program, cfg)
        .map(|(r, state)| (r.output, r.cycles, format!("{:?}", r.loops), state))
}

/// The VM, which iterates a serial `DO` inside its dispatch loop, against
/// the tree-walker, which calls its body per iteration: equal outcomes
/// under `cfg`. Returns the VM's.
fn assert_engine_parity(program: &Program, cfg: &MachineConfig, row: &str) -> Outcome {
    let vm = outcome(program, &cfg.clone().with_engine(Engine::Vm));
    let tree = outcome(program, &cfg.clone().with_engine(Engine::TreeWalk));
    assert_eq!(vm, tree, "{row}: {}", what(cfg));
    vm
}

/// The serial machine with the codegen model off and on (an innermost
/// iteration's delta is rescaled at the back-edge).
fn serial_machines() -> [MachineConfig; 2] {
    let aggressive = polaris_machine::CodegenModel::aggressive();
    [MachineConfig::serial(), MachineConfig::serial().with_codegen(aggressive)]
}

fn scalar<'a>(state: &'a polaris_machine::StateDump, name: &str) -> &'a str {
    &state.scalars.iter().find(|(n, _)| n == name).unwrap_or_else(|| panic!("no scalar {name}")).1
}

#[test]
fn zero_trip_and_negative_step_loops_agree_across_engines() {
    let src = "program trips\n\
               integer i, j, k, s\n\
               s = 0\n\
               do i = 5, 1\n\
               \x20 s = s + 1000\n\
               end do\n\
               do j = 10, 1, -3\n\
               \x20 s = s + j\n\
               \x20 do k = 1, j - 7\n\
               \x20   s = s + 100\n\
               \x20 end do\n\
               end do\n\
               print *, s, i, j, k\n\
               do k = 1, 5, -1\n\
               \x20 s = -1\n\
               end do\n\
               print *, s, k\n\
               end\n";
    let program = polaris_ir::parse(src).unwrap();
    for cfg in serial_machines() {
        let (output, ..) = assert_engine_parity(&program, &cfg, "trips").unwrap();
        // j = 10, 7, 4, 1; the inner loop runs 3 trips, then none, thrice.
        assert_eq!(output, ["322 5 -2 1", "322 1"]);
    }
}

#[test]
fn a_body_that_assigns_its_bound_iterates_the_bounds_of_loop_entry() {
    let src = "program bounds\n\
               integer i, n, m, s\n\
               n = 5\n\
               m = 1\n\
               s = 0\n\
               do i = m, n, m\n\
               \x20 n = n + 10\n\
               \x20 m = m + 1\n\
               \x20 s = s + 1\n\
               end do\n\
               print *, s, i, n, m\n\
               end\n";
    let program = polaris_ir::parse(src).unwrap();
    for cfg in serial_machines() {
        let (output, ..) = assert_engine_parity(&program, &cfg, "bounds").unwrap();
        assert_eq!(output, ["5 6 55 6"]);
    }
}

/// `STOP` in the innermost of three loops the VM has open in one
/// activation: each loop's epilogue runs (its `cycles` and `invocations`
/// are the tree-walker's) and none stores an exit value — the loop
/// variables end where the `STOP` found them.
#[test]
fn stop_in_the_innermost_of_three_in_stream_loops_agrees_across_engines() {
    let src = "program halt\n\
               integer i, j, k\n\
               real a(4, 4, 4)\n\
               do i = 1, 4\n\
               \x20 do j = 1, 4\n\
               \x20   do k = 1, 4\n\
               \x20     a(k, j, i) = i * 100.0 + j * 10.0 + k\n\
               \x20     if (i * 100 + j * 10 + k == 234) then\n\
               \x20       stop\n\
               \x20     end if\n\
               \x20   end do\n\
               \x20 end do\n\
               end do\n\
               print *, a(1, 1, 1)\n\
               end\n";
    let program = polaris_ir::parse(src).unwrap();
    for cfg in serial_machines() {
        let (output, _, loops, state) = assert_engine_parity(&program, &cfg, "halt").unwrap();
        assert!(output.is_empty());
        assert_eq!((scalar(&state, "I"), scalar(&state, "J"), scalar(&state, "K")), ("I:2", "I:3", "I:4"));
        // 1 invocation of the outer loop, 2 of the middle, 4 + 3 of the inner.
        for invocations in ["invocations: 1,", "invocations: 2,", "invocations: 7,"] {
            assert!(loops.contains(invocations), "{loops}");
        }
    }
}

/// Every fuel limit from none to one past what the nest needs ends the
/// same way in both engines: the step a limit runs out at — mid inner
/// loop for most — and the `limit` it reports.
#[test]
fn fuel_runs_out_inside_an_in_stream_loop_at_the_tree_walkers_step() {
    let src = "program nest\n\
               integer i, j\n\
               real a(6)\n\
               do i = 1, 6\n\
               \x20 do j = 1, i\n\
               \x20   a(i) = a(i) + j\n\
               \x20 end do\n\
               \x20 if (a(i) > 5.0) then\n\
               \x20   a(i) = 0.0\n\
               \x20 end if\n\
               end do\n\
               print *, a(1), a(6)\n\
               end\n";
    let program = polaris_ir::parse(src).unwrap();
    let needed = fuel_boundary(&program, &MachineConfig::serial());
    assert_eq!(needed, fuel_boundary(&program, &cfg(Engine::TreeWalk)));
    for fuel in 0..=needed + 1 {
        for cfg in serial_machines() {
            let ran = assert_engine_parity(&program, &cfg.with_fuel(fuel), "nest");
            match ran {
                Ok(_) => assert!(fuel >= needed),
                Err(e) => assert_eq!(e, MachineError::FuelExhausted { limit: fuel }),
            }
        }
    }
}

/// The analytic pre-check fires at loop entry: a run that `STOP`s in its
/// sixth iteration, a few dozen steps in, is refused under a budget one
/// short of the trip count and runs under a budget that covers it.
#[test]
fn fuel_precheck_fires_at_in_stream_loop_entry_in_both_engines() {
    let src = "program pre\n\
               integer i, k, s\n\
               s = 0\n\
               do k = 1, 2\n\
               \x20 do i = 1, 2000000000\n\
               \x20   s = s + i\n\
               \x20   if (i == 6) then\n\
               \x20     print *, s\n\
               \x20     stop\n\
               \x20   end if\n\
               \x20 end do\n\
               end do\n\
               end\n";
    let program = polaris_ir::parse(src).unwrap();
    let short = MachineConfig::serial().with_fuel(1_999_999_999);
    assert_eq!(
        assert_engine_parity(&program, &short, "pre").unwrap_err(),
        MachineError::FuelExhausted { limit: 1_999_999_999 }
    );
    let covered = MachineConfig::serial().with_fuel(2_000_000_100);
    assert_eq!(assert_engine_parity(&program, &covered, "pre").unwrap().0, ["21"]);
}

/// An out-of-bounds store in iteration 6 of the inner loop of outer
/// iteration 2: the same error, array name, subscript and extent
/// included, wherever the nest runs. (That the stores before it are in
/// memory when it is raised is `vm::tests`' row: a failed run returns
/// no dump.)
#[test]
fn out_of_bounds_store_inside_an_inner_loop_has_the_tree_walkers_payload() {
    let src = "program oob\n\
               integer i, j\n\
               real a(8, 3)\n\
               !$polaris doall private(J)\n\
               do i = 1, 3\n\
               \x20 do j = 1, 6\n\
               \x20   a(j + i * i - 1, i) = 1.0\n\
               \x20 end do\n\
               end do\n\
               print *, a(1, 1)\n\
               end\n";
    let program = polaris_ir::parse(src).unwrap();
    let want = MachineError::OutOfBounds { array: "A".into(), index: 9, len: 8 };
    let mut machines = serial_machines().to_vec();
    machines.extend([2, 8].map(|p| MachineConfig::challenge_8().with_procs(p)));
    machines.extend(threaded_backends());
    for cfg in machines {
        assert_eq!(assert_engine_parity(&program, &cfg, "oob").unwrap_err(), want, "{}", what(&cfg));
    }
}

/// One compiled unit, one body: a `PARALLEL DO` inside a serial `DO` is
/// iterated in-stream on one processor and handed to the fork — whose
/// lanes run the same instructions as a range — on more; its
/// invocations under the generated guard stay with the master. Every
/// machine prints what the serial one does, and the engines agree on
/// each down to the per-loop table.
#[test]
fn parallel_do_nested_in_a_serial_do_is_in_stream_or_forked_from_one_unit() {
    use polaris_machine::Schedule;
    let src = "program nested\n\
               integer i, k\n\
               real a(150), s\n\
               s = 0.0\n\
               do k = 1, 6\n\
               !$polaris doall\n\
               \x20 do i = 1, 4 * k * k\n\
               \x20   a(i) = a(i) + sin(i * 0.5) + cos(k * 0.25) + sqrt(i * 1.0) + exp(k * 0.01)\n\
               \x20 end do\n\
               \x20 s = s + a(k)\n\
               end do\n\
               print *, s, a(1), a(144), i, k\n\
               end\n";
    let program = polaris_ir::parse(src).unwrap();
    let mut machines = serial_machines().to_vec();
    machines.extend([1, 2, 8].map(|p| MachineConfig::challenge_8().with_procs(p)));
    for schedule in [Schedule::Static, Schedule::Dynamic { chunk: 4 }, Schedule::Stealing { chunk: 4 }] {
        machines.extend([2, 3].map(|threads| MachineConfig::threaded(threads, schedule)));
    }
    let (serial, ..) = outcome(&program, &MachineConfig::serial()).unwrap();
    for cfg in machines {
        let (output, cycles, loops, _) = assert_engine_parity(&program, &cfg, "nested").unwrap();
        assert_eq!(output, serial, "{}", what(&cfg));
        // Six invocations on any machine; forked where there are
        // processors and the work of two forks (k >= 3).
        assert!(loops.contains("invocations: 6,"), "{loops}");
        assert_eq!(loops.contains("parallel_invocations: 4,"), cfg.procs > 1, "{}: {loops}", what(&cfg));
        if cfg.exec_mode == polaris_machine::ExecMode::Threaded {
            // The bill and the per-loop table are the simulated machine's.
            let sim = outcome(&program, &simulated(&cfg)).unwrap();
            assert_eq!((sim.1, &sim.2), (cycles, &loops), "{}", what(&cfg));
        }
    }
}

/// An audit traces its run on the tree-walker whatever engine the
/// caller configured, so `Vm` and `TreeWalk` give byte-identical
/// verdicts — here through zero-trip loops, a `STOP`, and a dependence
/// carried by the middle loop of a nest.
#[test]
fn oracle_observations_of_in_stream_loops_agree_across_engines() {
    let src = "program traced\n\
               integer i, j, k\n\
               real a(12), b(12)\n\
               do i = 1, 3\n\
               \x20 do j = 2, 12\n\
               \x20   a(j) = a(j - 1) + i\n\
               \x20   do k = 1, j - 10\n\
               \x20     b(k) = a(j) + b(k)\n\
               \x20   end do\n\
               \x20 end do\n\
               \x20 if (a(12) > 30.0) then\n\
               \x20   stop\n\
               \x20 end if\n\
               end do\n\
               print *, a(12)\n\
               end\n";
    let out = polaris::parallelize(src, &PassOptions::polaris()).unwrap();
    let audit = |engine| {
        polaris_machine::audit_with(&out.program, &out.report, &cfg(engine)).unwrap().to_json()
    };
    let vm = audit(Engine::Vm);
    assert_eq!(vm, audit(Engine::TreeWalk));
    assert!(vm.contains("\"max_trip\": 11"), "{vm}");
}

/// A recorded run's trace under the virtual clock — a tick per event, so
/// every loop span's begin and end in order — is byte-identical between
/// the engines: on the serial machine, where the VM's spans live on its
/// loop frames, on the simulated multiprocessor, through a `STOP` that
/// closes three of them innermost-first, and through an error that drops
/// them.
#[test]
fn recorded_trace_of_in_stream_loops_is_byte_identical_under_the_virtual_clock() {
    let nest = |last: &str| {
        let src = format!(
            "program spans\n\
             integer i, j, k\n\
             real a(5)\n\
             !$polaris doall private(J, K)\n\
             do i = 1, 3\n\
             \x20 do j = 1, i - 1\n\
             \x20   do k = 1, 2\n\
             \x20     a(i + j) = a(i + j) + k\n\
             \x20     {last}\n\
             \x20   end do\n\
             \x20 end do\n\
             end do\n\
             print *, a(5)\n\
             end\n"
        );
        polaris_ir::parse(&src).unwrap()
    };
    let trace = |program: &Program, cfg: &MachineConfig| {
        let rec = polaris_obs::Recorder::virtual_clock();
        let ran = polaris_machine::run_recorded(program, cfg, &rec).map(|r| r.output);
        (ran, rec.chrome_trace_json())
    };
    let stop = "if (i + j + k == 7) then\n stop\n end if";
    for (row, program) in [("plain", nest("")), ("stop", nest(stop)), ("error", nest("a(i + j + k + 1) = 0.0"))] {
        for base in [MachineConfig::serial(), MachineConfig::challenge_8()] {
            let vm = trace(&program, &base.clone().with_engine(Engine::Vm));
            let tree = trace(&program, &base.clone().with_engine(Engine::TreeWalk));
            assert_eq!(vm, tree, "{row}: {}", what(&base));
            assert_eq!(vm.0.is_err(), row == "error", "{row}: {:?}", vm.0);
            assert!(vm.1.contains("loop:SPANS_do"), "{row}: {}", vm.1);
        }
    }
}

// ---- speculative loops on real threads ---------------------------------

/// `do i = 1, 96`, heavy enough per iteration (≈ 200 cycles) that the
/// threaded backend's deferred fork wakes its helpers, after `KEY(k) =
/// <key>` for `k = 1..96`; prints two elements of `A` and a sum.
fn speculative_scatter(key: &str, stmt: &str) -> Program {
    let src = format!(
        "program spec\n\
         real a(96), s\n\
         integer key(96)\n\
         do k = 1, 96\n\
         \x20 key(k) = {key}\n\
         \x20 a(k) = k * 0.25\n\
         end do\n\
         !$polaris doall speculative(A)\n\
         do i = 1, 96\n\
         \x20 {stmt}\n\
         end do\n\
         s = 0.0\n\
         do k = 1, 96\n\
         \x20 s = s + a(k)\n\
         end do\n\
         print *, a(1), a(96), s\n\
         end\n"
    );
    polaris_ir::parse(&src).unwrap()
}

/// 77 is coprime with 96: a permutation, so the PD test passes.
const PERMUTATION: &str = "mod(k * 77, 96) + 1";
/// Seven targets for 96 iterations: every invocation fails it.
const COLLIDING: &str = "mod(k, 7) + 1";
const HEAVY_STORE: &str = "a(key(i)) = sin(i * 0.5) + cos(i * 0.25) + sqrt(i * 1.0) + exp(i * 0.01)";
const HEAVY_UPDATE: &str = "a(key(i)) = a(key(i)) + sin(i * 0.5) + cos(i * 0.25) + sqrt(i * 1.0) + exp(i * 0.01)";

/// Both engines × static / dynamic / stealing × 2, 3 and 8 threads.
fn threaded_backends() -> Vec<MachineConfig> {
    use polaris_machine::Schedule;
    let schedules = [Schedule::Static, Schedule::Dynamic { chunk: 4 }, Schedule::Stealing { chunk: 4 }];
    let mut out = Vec::new();
    for engine in ENGINES {
        for schedule in schedules {
            for procs in [2, 3, 8] {
                out.push(MachineConfig::threaded(procs, schedule).with_engine(engine));
            }
        }
    }
    out
}

fn simulated(threaded: &MachineConfig) -> MachineConfig {
    MachineConfig { exec_mode: polaris_machine::ExecMode::Simulated, ..threaded.clone() }
}

fn what(cfg: &MachineConfig) -> String {
    format!("{:?} x {} {:?} {:?}", cfg.exec_mode, cfg.procs, cfg.schedule, cfg.engine)
}

/// `(passed, failed)` PD tests of a run.
fn verdicts(r: &polaris_machine::RunResult) -> (u64, u64) {
    r.loops.values().fold((0, 0), |(ok, no), s| (ok + s.spec_success, no + s.spec_fail))
}

/// `exec.threaded.chunks` of a run: chunks that lanes of the threaded
/// backend ran and the join merged.
fn threaded_chunks(program: &Program, cfg: &MachineConfig) -> u64 {
    let rec = polaris_obs::Recorder::monotonic();
    polaris_machine::run_recorded(program, cfg, &rec).unwrap();
    rec.counters().get("exec.threaded.chunks").copied().unwrap_or(0)
}

/// On every threaded backend: the serial output, and the simulated
/// machine's cycle count and verdicts, which must be `want`.
fn assert_speculative_rows(program: &Program, want: (u64, u64)) {
    let serial = polaris_machine::run_serial(program).unwrap();
    for cfg in threaded_backends() {
        let sim = polaris_machine::run(program, &simulated(&cfg)).unwrap();
        let thr = polaris_machine::run(program, &cfg).unwrap_or_else(|e| panic!("{}: {e}", what(&cfg)));
        assert_eq!(thr.output, serial.output, "{}", what(&cfg));
        assert_eq!(sim.output, serial.output, "{}", what(&cfg));
        assert_eq!(thr.cycles, sim.cycles, "{}", what(&cfg));
        assert_eq!(verdicts(&thr), want, "{}", what(&cfg));
        assert_eq!(verdicts(&sim), want, "{}", what(&cfg));
    }
}

/// A permutation scatter passes the PD test, and the lanes really ran
/// it: their chunks are what the join committed.
#[test]
fn speculative_permutation_scatter_is_committed_from_the_lanes() {
    let program = speculative_scatter(PERMUTATION, HEAVY_STORE);
    assert_speculative_rows(&program, (1, 0));
    for cfg in threaded_backends() {
        assert!(threaded_chunks(&program, &cfg) > 0, "{}", what(&cfg));
    }
}

/// `a(key(i)) = a(key(i)) + …` over seven targets: lanes read stale
/// sums, the verdict fails, and the in-order run gives the serial answer
/// at the simulated machine's attempt + re-execution bill.
#[test]
fn speculative_colliding_update_falls_back_to_the_serial_answer() {
    assert_speculative_rows(&speculative_scatter(COLLIDING, HEAVY_UPDATE), (0, 1));
}

/// A lane that starts mid-loop reads `IDX(i-1)` as it was before the
/// loop — out of `B`'s bounds — where the serial loop reads what
/// iteration `i-1` stored. The lane's fault is not the program's: every
/// backend gives the serial answer, never `OutOfBounds`.
#[test]
fn speculative_stale_subscript_is_never_a_bad_subscript() {
    let src = "program stale\n\
               integer idx(97)\n\
               real b(96)\n\
               idx(1) = 0\n\
               do k = 2, 97\n\
               \x20 idx(k) = 1000\n\
               end do\n\
               !$polaris doall speculative(IDX)\n\
               do i = 2, 97\n\
               \x20 idx(i) = idx(i - 1) + 1\n\
               \x20 b(idx(i)) = sin(i * 0.5) + cos(i * 0.25) + sqrt(i * 1.0) + exp(i * 0.01)\n\
               end do\n\
               print *, idx(97), b(1), b(96)\n\
               end\n";
    assert_speculative_rows(&polaris_ir::parse(src).unwrap(), (0, 1));
    // One dependence, from iteration 40 to iteration 60: where they fall
    // in different lanes the reader faults in the iteration that read the
    // stale value, before its marks count — the lanes' verdict alone
    // would pass.
    let once = "program once\n\
                integer p(96)\n\
                real b(96)\n\
                do k = 1, 96\n\
                \x20 p(k) = 1000\n\
                end do\n\
                !$polaris doall speculative(P)\n\
                do i = 1, 96\n\
                \x20 b(i) = sin(i * 0.5) + cos(i * 0.25) + sqrt(i * 1.0) + exp(i * 0.01)\n\
                \x20 if (i == 40) then\n\
                \x20   p(60) = 5\n\
                \x20 end if\n\
                \x20 if (i == 60) then\n\
                \x20   b(p(60)) = -1.0\n\
                \x20 end if\n\
                end do\n\
                print *, p(60), b(5), b(96)\n\
                end\n";
    assert_speculative_rows(&polaris_ir::parse(once).unwrap(), (0, 1));
}

/// What the lanes of a failed attempt printed is thrown away with them:
/// every line appears once, in iteration order.
#[test]
fn speculative_failing_loop_prints_once_and_in_order() {
    let print = format!("{HEAVY_UPDATE}\n  print *, 'iteration', i, key(i)");
    let program = speculative_scatter(COLLIDING, &print);
    assert_eq!(polaris_machine::run_serial(&program).unwrap().output.len(), 97);
    assert_speculative_rows(&program, (0, 1));
}

/// At every fuel limit from 0 to one past the serial step count a
/// failing speculative loop ends the same way on every backend: `Ok`
/// with the serial output, or `FuelExhausted` carrying the limit. (A
/// lane may run out on its own count, or not at all, where the in-order
/// run decides otherwise; only the in-order run is reported.)
#[test]
fn speculative_failing_loop_meets_every_fuel_limit_like_the_serial_run() {
    let program = speculative_scatter(COLLIDING, HEAVY_UPDATE);
    let serial_steps = fuel_boundary(&program, &MachineConfig::serial());
    let class = |cfg: &MachineConfig, fuel: u64| match polaris_machine::run(&program, &cfg.clone().with_fuel(fuel)) {
        Ok(r) => Ok(r.output),
        Err(MachineError::FuelExhausted { limit }) => Err(limit),
        Err(other) => panic!("{} at fuel {fuel}: {other}", what(cfg)),
    };
    for fuel in 0..=serial_steps + 1 {
        let want = class(&MachineConfig::serial(), fuel);
        assert_eq!(want.is_ok(), fuel >= serial_steps);
        for cfg in threaded_backends() {
            assert_eq!(class(&simulated(&cfg), fuel), want, "{} at fuel {fuel}", what(&simulated(&cfg)));
            assert_eq!(class(&cfg, fuel), want, "{} at fuel {fuel}", what(&cfg));
        }
    }
}

/// Two speculative loops never leave the master: a body that may `STOP`
/// (later iterations must not run at all), and one in which a value read
/// from the speculated array bounds an inner `DO` (a stale bound could
/// keep a lane running long after the serial loop is done). Both are
/// decided at lowering, so no lane runs a chunk of them.
#[test]
fn speculative_loops_with_a_stop_or_a_speculated_inner_bound_stay_in_order() {
    let stop = format!("{HEAVY_STORE}\n  if (a(key(i)) > 1.0e6) then\n    stop\n  end if");
    let stopping = speculative_scatter(PERMUTATION, &stop);
    let bound = "program bound\n\
                 integer cnt(97)\n\
                 real b(96)\n\
                 cnt(1) = 1\n\
                 !$polaris doall speculative(CNT) private(J)\n\
                 do i = 2, 97\n\
                 \x20 cnt(i) = mod(cnt(i - 1) * 5, 7) + 1\n\
                 \x20 do j = 1, cnt(i)\n\
                 \x20   b(i - 1) = b(i - 1) + sin(j * 0.5) + sqrt(i * 1.0)\n\
                 \x20 end do\n\
                 end do\n\
                 print *, cnt(97), b(1), b(96)\n\
                 end\n";
    for (program, want) in [(stopping, (1, 0)), (polaris_ir::parse(bound).unwrap(), (0, 1))] {
        assert_speculative_rows(&program, want);
        for cfg in threaded_backends() {
            assert_eq!(threaded_chunks(&program, &cfg), 0, "{}", what(&cfg));
        }
    }
}

/// A panic inside a speculative lane is the backend's `WorkerPanicked`,
/// whichever thread ran the lane: it does not unwind out of `run`, hang
/// the join, or pass for a misspeculation.
#[test]
fn speculative_lane_panic_is_worker_panicked() {
    let program = speculative_scatter(PERMUTATION, HEAVY_STORE);
    // Every lane counts from the master's steps at the fork, so a step 20
    // into the speculative loop is one each of them reaches.
    let before_the_loop = 1 + 96 * 3;
    for cfg in threaded_backends() {
        let cfg = MachineConfig { panic_at_step: Some(before_the_loop + 20), ..cfg };
        match polaris_machine::run(&program, &cfg) {
            Err(MachineError::WorkerPanicked { loop_label }) => assert!(loop_label.contains("do"), "{loop_label}"),
            other => panic!("{}: {other:?}", what(&cfg)),
        }
    }
}

// ---- memory ----------------------------------------------------------

#[test]
fn memory_cap_hit_has_identical_payload_in_both_engines() {
    let mut seen = Vec::new();
    for engine in ENGINES {
        match polaris_machine::run(&compiled(), &cfg(engine).with_memory_cap(8)) {
            Err(MachineError::MemoryCapExceeded { need, cap }) => seen.push((need, cap)),
            other => panic!("{engine:?}: wrong exit class: {other:?}"),
        }
    }
    assert_eq!(seen[0], seen[1], "engines disagree on the memory-cap payload");
    assert_eq!(seen[0].1, 8);
}

// ---- cooperative cancellation ----------------------------------------

/// A token cancelled before the run starts stops both engines at the
/// very first fuel-step boundary, with the canceller's reason preserved
/// verbatim in the error payload.
#[test]
fn pre_cancelled_token_stops_both_engines_with_the_same_reason() {
    for engine in ENGINES {
        let token = polaris::core::CancelToken::new();
        token.cancel("deadline exceeded by 7ms");
        let err = polaris_machine::run(&compiled(), &cfg(engine).with_cancel(token))
            .expect_err("cancelled before the first step");
        match &err {
            MachineError::Cancelled(reason) => {
                assert_eq!(reason, "deadline exceeded by 7ms", "{engine:?}")
            }
            other => panic!("{engine:?}: wrong exit class: {other:?}"),
        }
        assert_eq!(err.to_string(), "execution cancelled: deadline exceeded by 7ms");
    }
}

/// Mid-loop cancellation: a watchdog fires while the interpreter is in
/// the middle of a long loop. Both engines must surface `Cancelled` (the
/// run returns `Err`, so no partial output can be served), and a fresh
/// post-cancel run must still produce the reference output — cancelling
/// leaks no state into subsequent executions.
#[test]
fn mid_loop_cancellation_is_cancelled_class_and_leaks_no_state() {
    let spin = "program spin\n\
                integer s\n\
                s = 0\n\
                do i = 1, 2000000000\n\
                \x20 s = s + 1\n\
                end do\n\
                print *, s\n\
                end\n";
    let program = polaris_ir::parse(spin).unwrap();
    for engine in ENGINES {
        let token = polaris::core::CancelToken::new();
        let watchdog = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(15));
                token.cancel("wall deadline (15ms) exceeded");
            })
        };
        let err = polaris_machine::run(&program, &cfg(engine).with_cancel(token))
            .expect_err("the watchdog must stop the spin loop");
        watchdog.join().unwrap();
        match err {
            MachineError::Cancelled(reason) => {
                assert_eq!(reason, "wall deadline (15ms) exceeded", "{engine:?}")
            }
            other => panic!("{engine:?}: wrong exit class: {other:?}"),
        }
        // Post-cancel re-verification: the same interpreter entry points,
        // called fresh, still produce the uncancelled reference — both
        // output and final state.
        let (ran, state) = run_with_state(&compiled(), &cfg(engine)).unwrap();
        assert_eq!(ran.output, reference_output(engine), "{engine:?}");
        let (_, ref_state) = run_with_state(&compiled(), &cfg(Engine::TreeWalk)).unwrap();
        assert_eq!(state, ref_state, "{engine:?}: post-cancel state drifted");
    }
}

/// Cancellation is checked in threaded lanes too (every lane reads the
/// token at each of its own steps), under both engines.
#[test]
fn cancellation_reaches_threaded_workers_in_both_engines() {
    use polaris_machine::Schedule;
    let out = polaris::parallelize(SRC, &PassOptions::polaris()).unwrap();
    for engine in ENGINES {
        let token = polaris::core::CancelToken::new();
        token.cancel("cancelled before dispatch");
        let cfg = MachineConfig::threaded(4, Schedule::Static)
            .with_engine(engine)
            .with_cancel(token);
        match polaris_machine::run(&out.program, &cfg) {
            Err(MachineError::Cancelled(_)) => {}
            other => panic!("{engine:?}: expected Cancelled, got {other:?}"),
        }
    }
}

// ---- wall deadline at the service, execution level -------------------

/// With `exec_engine` set, a deadline that passes while the compiled
/// program is *executing* degrades the response exactly like a
/// mid-compile deadline: `degraded`, exit 1, never retried — identically
/// under both engines.
#[test]
fn service_deadline_during_execution_is_degraded_exit_1_in_both_engines() {
    let spin = "program spin\n\
                integer s\n\
                s = 0\n\
                do i = 1, 2000000000\n\
                \x20 s = s + 1\n\
                end do\n\
                print *, s\n\
                end\n";
    for engine in ENGINES {
        let service = Service::new(ServiceConfig {
            workers: 1,
            exec_engine: Some(engine),
            ..ServiceConfig::default()
        });
        let resp = service
            .submit(Request {
                id: 1,
                client: "vmsem".into(),
                vfa: false,
                deadline_ms: Some(40),
                return_program: false,
                source: spin.into(),
            })
            .wait_timeout(Duration::from_secs(30))
            .unwrap();
        assert_eq!(resp.status, Status::Degraded, "{engine:?}: {:?}", resp.reason);
        assert_eq!(resp.exit_code, 1, "{engine:?}");
        assert_eq!(resp.attempts, 1, "{engine:?}: a deadline blow must not be retried");
        assert!(
            resp.reason.as_deref().unwrap_or("").contains("deadline during execution"),
            "{engine:?}: {:?}",
            resp.reason
        );
        assert_eq!(resp.run_checksum, None, "{engine:?}: no output may be served");
        let stats = service.shutdown();
        assert!(stats.deadline_cancels >= 1, "{engine:?}");
        assert_eq!(stats.retries, 0, "{engine:?}");
    }
}

/// The not-hit row: with a generous deadline the service executes the
/// program and both engines report the same output checksum.
#[test]
fn service_execution_ok_run_checksums_match_across_engines() {
    let mut sums = Vec::new();
    for engine in ENGINES {
        let service = Service::new(ServiceConfig {
            workers: 1,
            exec_engine: Some(engine),
            exec_fuel: Some(2_000_000),
            ..ServiceConfig::default()
        });
        let resp = service
            .submit(Request {
                id: 1,
                client: "vmsem".into(),
                vfa: false,
                deadline_ms: Some(10_000),
                return_program: false,
                source: SRC.into(),
            })
            .wait_timeout(Duration::from_secs(30))
            .unwrap();
        assert_eq!(resp.status, Status::Ok, "{engine:?}: {:?}", resp.reason);
        assert_eq!(resp.exit_code, 0, "{engine:?}");
        sums.push(resp.run_checksum.expect("exec_engine set: output checksum present"));
    }
    assert_eq!(sums[0], sums[1], "engines disagree on the executed-output checksum");
}

/// Fuel exhaustion inside the service is a deterministic execution error:
/// answered as `error`, never retried, same class under both engines.
#[test]
fn service_fuel_exhaustion_is_error_not_retried_in_both_engines() {
    for engine in ENGINES {
        let service = Service::new(ServiceConfig {
            workers: 1,
            exec_engine: Some(engine),
            exec_fuel: Some(10),
            ..ServiceConfig::default()
        });
        let resp = service
            .submit(Request {
                id: 1,
                client: "vmsem".into(),
                vfa: false,
                deadline_ms: None,
                return_program: false,
                source: SRC.into(),
            })
            .wait_timeout(Duration::from_secs(30))
            .unwrap();
        assert_eq!(resp.status, Status::Error, "{engine:?}: {:?}", resp.reason);
        assert!(
            resp.reason.as_deref().unwrap_or("").contains("fuel exhausted"),
            "{engine:?}: {:?}",
            resp.reason
        );
        let stats = service.shutdown();
        assert_eq!(stats.retries, 0, "{engine:?}: deterministic failures are not retried");
    }
}

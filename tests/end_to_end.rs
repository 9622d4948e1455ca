//! End-to-end integration across all crates: source → pipeline →
//! simulated machine → adversarial validation, including the inliner
//! path with multi-unit programs.

use polaris::{parallelize, parallelize_and_run, MachineConfig, PassOptions};

#[test]
fn multi_unit_program_inlines_and_parallelizes() {
    let src = "
      program main
      integer n
      parameter (n = 4000)
      real grid(n), rhs(n)
      real nrm
      call setup(grid, rhs, n)
      call smooth(grid, rhs, n)
      nrm = vnorm(grid, n)
      print *, 'norm', nrm
      end

      subroutine setup(g, r, n)
      integer n
      real g(n), r(n)
      do i = 1, n
        g(i) = 0.0
        r(i) = 1.0/i
      end do
      end

      subroutine smooth(g, r, n)
      integer n
      real g(n), r(n)
      real t
      do i = 2, n - 1
        t = r(i)*0.5
        g(i) = t + r(i - 1)*0.25 + r(i + 1)*0.25
      end do
      end

      real function vnorm(g, n)
      integer n
      real g(n)
      vnorm = g(2)*g(2)
      return
      end
";
    let (serial, parallel, out) =
        parallelize_and_run(src, &PassOptions::polaris(), &MachineConfig::challenge_8()).unwrap();
    assert_eq!(out.report.inline.call_sites_expanded, 2);
    assert_eq!(out.report.inline.function_calls_expanded, 1);
    assert!(out.report.parallel_loops() >= 2, "{:#?}", out.report.loops);
    assert_eq!(serial.output, parallel.output);
    assert!(parallel.cycles < serial.cycles);
    polaris::machine::run_validated(&out.program, &MachineConfig::challenge_8()).unwrap();
}

/// The array names in a compile's `PRIVATE` and `REDUCTION` clauses,
/// one entry per clause, sorted.
fn array_clauses(out: &polaris::ParallelizeOutput) -> Vec<String> {
    let is_array = |n: &str| {
        out.program.units.iter().any(|u| u.symbols.get(n).is_some_and(|s| !s.dims().is_empty()))
    };
    let mut clauses = Vec::new();
    for l in &out.report.loops {
        clauses.extend(l.private.iter().filter(|n| is_array(n)).map(|n| format!("PRIVATE({n})")));
        let reduced = l.reductions.iter().filter(|r| r.split(':').nth(1).is_some_and(is_array));
        clauses.extend(reduced.map(|r| format!("REDUCTION({r})")));
    }
    clauses.sort();
    clauses
}

#[test]
fn annotated_output_is_reanalyzable_fixpoint() {
    // print → parse → recompile is a fixpoint of the restructurer on every
    // kernel: same verdicts, no array clause the first compile did not
    // need, same output, same simulated cycles — but for the two tiled
    // kernels, whose printed tile loops `normalize` rewrites with a few
    // reconstruction assignments.
    use polaris::benchmarks as b;
    let kernels = b::all()
        .into_iter()
        .chain([b::track(), b::skewed()])
        .chain(b::irregular().into_iter().map(|(k, _)| k))
        .chain(b::locality().into_iter().map(|(k, _)| k));
    let cfg = MachineConfig::challenge_8();
    let mut seen = 0;
    for k in kernels {
        let name = k.name;
        let first = parallelize(k.source, &PassOptions::polaris()).unwrap();
        let second = parallelize(&first.annotated_source, &PassOptions::polaris()).unwrap();
        let verdicts = |o: &polaris::ParallelizeOutput| {
            (o.report.loops.len(), o.report.parallel_loops(), o.report.speculative_loops())
        };
        assert_eq!(verdicts(&first), verdicts(&second), "{name}: verdict drift after round-trip");
        let mut needed = array_clauses(&first);
        for clause in array_clauses(&second) {
            let at = needed.iter().position(|c| *c == clause);
            needed.remove(at.unwrap_or_else(|| panic!("{name}: recompile adds {clause}")));
        }
        let (r1, r2) = (
            polaris::machine::run(&first.program, &cfg).unwrap(),
            polaris::machine::run(&second.program, &cfg).unwrap(),
        );
        assert_eq!(r1.output, r2.output, "{name}");
        if ["STENCIL2D", "SWIM"].contains(&name) {
            let drift = r2.cycles.abs_diff(r1.cycles) as f64 / r1.cycles as f64;
            assert!(drift <= 0.02, "{name}: {} -> {} cycles", r1.cycles, r2.cycles);
        } else {
            assert_eq!(r1.cycles, r2.cycles, "{name}");
        }
        seen += 1;
    }
    assert_eq!(seen, 26);
}

/// A private scalar (or private array element) that in-iteration
/// resolution cannot remove from a subscript is not a fixed symbol: each
/// of these shipped a wrong PARALLEL, an illegal interchange or a wrong
/// PRIVATE array.
#[test]
fn a_private_scalar_left_in_a_subscript_ships_no_wrong_answer() {
    // K is unknown at compile time and 0 at run time.
    let program = |decls: &str, body: &str, print: &str| {
        format!(
            "program t\n{decls}\ninteger ia(4), k, jt\nia(1) = 0\nk = ia(1)\n{body}print *, {print}\nend\n"
        )
    };
    let fill_a = "do i = 1, 200\n  a(i) = 0.0\nend do\n";
    let cases = [
        // every iteration writes A(5)
        program(
            "real a(200)",
            &format!("{fill_a}do i = 1, 100\n  jt = 5 - i\n  jt = jt + k\n  a(jt + i) = i*1.0\nend do\n"),
            "a(5)",
        ),
        // iterations I and 101-I write A(101)
        program(
            "real a(200), b(100)",
            &format!(
                "{fill_a}do i = 1, 100\n  b(i) = mod(i, 3) - 1.0\nend do\n\
                 do i = 1, 100\n  jt = i\n  if (b(i) .gt. 0.0) jt = 101 - i\n  a(jt + i) = i*1.0\nend do\n"
            ),
            "a(101), a(2)",
        ),
        // the same through a private array element
        program(
            "real a(200)\ninteger idx(4)",
            &format!("{fill_a}do i = 1, 100\n  idx(1) = 5 - i\n  a(idx(1) + i) = i*1.0\nend do\n"),
            "a(5)",
        ),
        // a(i,j) = a(i-1,j+1): a (<, >) dependence, interchange illegal
        program(
            "real a(64, 200)",
            "do i = 1, 64\n  do j = 1, 200\n    a(i, j) = i + j*0.5\n  end do\nend do\n\
             do i = 2, 64\n  do j = 1, 64\n    jt = k - j\n    jt = jt + k\n\
             \x20   a(i, jt + 2*j) = a(i - 1, jt + 2*j + 1) + 1.0\n  end do\nend do\n",
            "a(64, 1), a(33, 17)",
        ),
        // W(1:10) written, W(6:15) read: W carries values across iterations
        program(
            "real w(100), r(100)",
            "do i = 1, 100\n  w(i) = 0.0\nend do\n\
             do i = 1, 100\n  jt = k\n  do l = 1, 10\n    w(jt + l) = i*1.0\n  end do\n\
             \x20 jt = jt + 5\n  s = 0.0\n  do l = 1, 10\n    s = s + w(jt + l)\n  end do\n\
             \x20 r(i) = s\nend do\n",
            "r(1), r(50), r(100)",
        ),
    ];
    let threaded = MachineConfig::threaded(2, polaris_machine::Schedule::Stealing { chunk: 4 });
    for src in &cases {
        let serial = polaris::machine::run_serial(&polaris::ir::parse(src).unwrap()).unwrap();
        let out = parallelize(src, &PassOptions::polaris()).unwrap();
        let listing = &out.annotated_source;
        polaris::machine::run_validated(&out.program, &MachineConfig::challenge_8())
            .unwrap_or_else(|e| panic!("{e}\n{listing}"));
        let audit = polaris::machine::oracle::audit(&out.program, &out.report).unwrap();
        assert!(!audit.has_violations(), "{:?}\n{listing}", audit.violations().collect::<Vec<_>>());
        let r = polaris::machine::run(&out.program, &threaded).unwrap();
        assert_eq!(r.output, serial.output, "{listing}");
    }
}

#[test]
fn speculative_program_runs_correctly_under_both_outcomes() {
    // one invocation succeeds, one fails: results must match serial in
    // both cases (commit vs rollback+reexec are both exercised).
    let src = "
      program twoway
      integer n
      parameter (n = 512)
      real h(n), g(n)
      integer key(n)
      do i = 1, n
        g(i) = i*0.25
      end do
      do inv = 1, 2
        do i = 1, n
          if (inv .eq. 1) then
            key(i) = mod(i*77, n) + 1
          else
            key(i) = mod(i, n/4) + 1
          end if
        end do
        do i = 1, n
          h(key(i)) = g(i) + inv*10.0
        end do
      end do
      print *, h(1), h(n/4)
      end
";
    let (serial, parallel, out) =
        parallelize_and_run(src, &PassOptions::polaris(), &MachineConfig::challenge_8()).unwrap();
    assert_eq!(out.report.speculative_loops(), 1, "{:#?}", out.report.loops);
    assert_eq!(serial.output, parallel.output);
    let spec_stats: Vec<_> = parallel
        .loops
        .values()
        .filter(|s| s.spec_success + s.spec_fail > 0)
        .collect();
    assert_eq!(spec_stats.len(), 1);
    assert_eq!(spec_stats[0].spec_success, 1);
    assert_eq!(spec_stats[0].spec_fail, 1);
}

#[test]
fn vfa_and_polaris_agree_on_results_everywhere() {
    // Different parallelization, same semantics: both pipelines'
    // outputs and the original program agree on every benchmark.
    for b in polaris::benchmarks::all() {
        let serial = polaris::machine::run_serial(&b.program()).unwrap();
        for opts in [PassOptions::polaris(), PassOptions::vfa()] {
            let out = parallelize(b.source, &opts).unwrap();
            let r = polaris::machine::run(&out.program, &MachineConfig::challenge_8()).unwrap();
            assert_eq!(serial.output, r.output, "{}", b.name);
        }
    }
}

#[test]
fn facts_about_reassigned_variables_do_not_reach_closed_forms() {
    // The I body reassigns N, so `N = 5` says nothing about the J trip
    // count in later iterations: K has no closed form over I (induction
    // once hoisted `K = 3*N` and printed `-6 -2`).
    let stale_fact = "
      program stale
      integer n, k, i, j
      integer ia(3)
      ia(1) = -4
      ia(2) = 7
      ia(3) = -2
      n = 5
      k = 0
      do i = 1, 3
        do j = 1, n
          k = k + 1
        end do
        n = ia(i)
      end do
      print *, k, n
      end
";
    // The bound itself is reassigned: the trip count is the N of entry,
    // the last value must not be computed from the N of exit.
    let stale_bound = "
      program bound
      integer n, k, i
      integer ia(1)
      ia(1) = 5
      n = ia(1)
      k = 0
      do i = 1, n
        k = k + 1
        n = 7
      end do
      print *, k, n
      end
";
    for (src, want) in [(stale_fact, "12 -2"), (stale_bound, "5 7")] {
        let (serial, parallel, out) =
            parallelize_and_run(src, &PassOptions::polaris(), &MachineConfig::challenge_8())
                .unwrap();
        assert_eq!(serial.output, [want]);
        assert_eq!(parallel.output, serial.output, "{}", out.annotated_source);
        polaris::machine::run_validated(&out.program, &MachineConfig::challenge_8()).unwrap();
    }
}

#[test]
fn a_read_in_another_reductions_operand_is_a_reference_elsewhere() {
    // Both statements are reduction-shaped, but each reads the other's
    // target in its operand; the loop once shipped as
    // `DOALL REDUCTION(+:V, +:C[])` and printed `1.0 1.0` threaded.
    let src = "
      program cross
      real c(20), v
      do i = 1, 20
        c(i) = i
      end do
      v = 1.0
      do i = 1, 20
        v = v + c(i)
        c(14) = c(14) + v
      end do
      print *, v, c(14)
      end
";
    let cfg = MachineConfig::challenge_8();
    let (serial, parallel, out) =
        parallelize_and_run(src, &PassOptions::polaris(), &cfg).unwrap();
    assert!(!out.annotated_source.contains("REDUCTION"), "{}", out.annotated_source);
    assert_eq!(parallel.output, serial.output, "{}", out.annotated_source);
    polaris::machine::run_validated(&out.program, &cfg).unwrap();
    let threaded = MachineConfig::threaded(4, polaris_machine::Schedule::Static);
    let r = polaris::machine::run(&out.program, &threaded).unwrap();
    assert_eq!(r.output, serial.output);
}

#[test]
fn a_store_read_only_by_its_enclosing_if_on_the_back_edge_survives() {
    // M is dead after the loop (`m = 0`), but the next iteration's
    // `M > L` reads what `M = M + M` stored; DCE once deleted the store
    // and the condition froze.
    let src = "
      program frozen
      integer m, l
      real v
      m = 1
      l = 4
      v = 0.0
      do j = 1, 10
        if (m > l) then
          v = v + 1.0
        else
          m = m + m
        end if
      end do
      m = 0
      print *, v, m
      end
";
    let cfg = MachineConfig::challenge_8();
    let (serial, parallel, out) =
        parallelize_and_run(src, &PassOptions::polaris(), &cfg).unwrap();
    assert_eq!(serial.output, ["7.000000E0 0"]);
    assert_eq!(parallel.output, serial.output, "{}", out.annotated_source);
    polaris::machine::run_validated(&out.program, &cfg).unwrap();
}

#[test]
fn an_inner_loop_index_read_after_the_nest_is_copied_out() {
    let program = |nest: &str, print: &str| {
        format!(
            "program lp\nreal a(100), b(100), s\ninteger i, k\ns = 0.0\nk = 7\n\
             do i = 1, 100\n  a(i) = 0.0\nend do\n{nest}print *, {print}\nend\n"
        )
    };
    let update = "    a(i) = a(i) + i*0.5\n    s = s + a(i)\n";
    let cases = [
        // Interchange makes K the inner loop of a DOALL over I. K went
        // into PRIVATE without being asked whether anything reads it
        // afterwards, and real threads printed the master's untouched 0.
        (
            program(&format!("do k = 1, 3\n  do i = 1, 100\n{update}  end do\nend do\n"), "s, i, k"),
            "1.515000E4 101 4",
            Some("LASTPRIVATE(K)"),
        ),
        // The inner DO may not run: no last-iteration value to copy out.
        (
            program(
                &format!("do i = 1, 100\n  if (i .lt. 50) then\n  do k = 1, 3\n{update}  end do\n  end if\nend do\n"),
                "s, k",
            ),
            "3.675000E3 4",
            None,
        ),
        // K is read before its DO: the previous iteration's exit value.
        (
            program(&format!("do i = 1, 100\n  b(i) = k\n  do k = 1, 3\n{update}  end do\nend do\n"), "b(1), b(2), k"),
            "7.000000E0 4.000000E0 4",
            None,
        ),
    ];
    use polaris_machine::{Engine, Schedule};
    let mut configs = vec![MachineConfig::serial(), MachineConfig::challenge_8()];
    for threads in [2, 3] {
        for schedule in [Schedule::Static, Schedule::Dynamic { chunk: 4 }, Schedule::Stealing { chunk: 4 }] {
            configs.push(MachineConfig::threaded(threads, schedule));
        }
    }
    for (src, expected, clause) in &cases {
        let serial = polaris::machine::run_serial(&polaris::ir::parse(src).unwrap()).unwrap();
        assert_eq!(serial.output, [*expected]);
        for nest_opts in [true, false] {
            let out = parallelize(src, &PassOptions { nest_opts, ..PassOptions::polaris() }).unwrap();
            let listing = &out.annotated_source;
            if let (Some(clause), true) = (clause, nest_opts) {
                assert!(listing.contains(clause), "{listing}");
            }
            for engine in [Engine::Vm, Engine::TreeWalk] {
                for cfg in &configs {
                    let cfg = MachineConfig { engine, ..cfg.clone() };
                    let r = polaris::machine::run(&out.program, &cfg).unwrap();
                    assert_eq!(r.output, serial.output, "{cfg:?}\n{listing}");
                }
            }
            polaris::machine::run_validated(&out.program, &MachineConfig::challenge_8())
                .unwrap_or_else(|e| panic!("{e}\n{listing}"));
        }
    }
}

#[test]
fn cli_binary_smoke() {
    use std::io::Write;
    let dir = std::env::temp_dir().join("polarisc_smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("demo.f");
    let mut f = std::fs::File::create(&path).unwrap();
    writeln!(
        f,
        "program demo\nreal a(5000)\ndo i = 1, 5000\n  a(i) = i*2.0\nend do\nprint *, a(42)\nend"
    )
    .unwrap();
    drop(f);
    let exe = env!("CARGO_BIN_EXE_polarisc");
    let out = std::process::Command::new(exe)
        .args(["--report", "--run", "--validate", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stdout.contains("!$POLARIS DOALL"), "{stdout}");
    assert!(stderr.contains("PARALLEL"), "{stderr}");
    assert!(stderr.contains("speedup"), "{stderr}");
    assert!(stderr.contains("validation"), "{stderr}");
}

/// Regression test for the `--diag`/`--procs` wiring: `--procs` was
/// validated but the diagnostics never consulted it, so `--diag` showed
/// the same (8-proc) numbers whatever the user asked for. The reported
/// simulated speedup must now differ between 2 and 8 processors on a
/// clearly parallel program, and the diag output must name the
/// requested processor count.
#[test]
fn cli_diag_reports_speedup_at_requested_procs() {
    use std::io::Write;
    let dir = std::env::temp_dir().join("polarisc_diag_procs");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("par.f");
    let mut f = std::fs::File::create(&path).unwrap();
    writeln!(
        f,
        "program par\nreal a(20000)\ndo i = 1, 20000\n  a(i) = i*2.0\nend do\nprint *, a(42)\nend"
    )
    .unwrap();
    drop(f);
    let exe = env!("CARGO_BIN_EXE_polarisc");
    let speedup_at = |procs: &str| -> f64 {
        let out = std::process::Command::new(exe)
            .args(["--quiet", "--diag", "--procs", procs, path.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let stderr = String::from_utf8_lossy(&out.stderr);
        let line = stderr
            .lines()
            .find(|l| l.contains(&format!("simulated speedup @ {procs} procs:")))
            .unwrap_or_else(|| panic!("no speedup line for {procs} procs in:\n{stderr}"));
        line.split_whitespace()
            .find_map(|tok| tok.strip_suffix('x').and_then(|v| v.parse().ok()))
            .unwrap_or_else(|| panic!("unparsable speedup line: {line}"))
    };
    let at2 = speedup_at("2");
    let at8 = speedup_at("8");
    assert!(
        at8 > at2 * 1.5,
        "--procs must drive the diag speedup model: got {at2}x @2 vs {at8}x @8"
    );
    assert!(at2 > 1.2 && at2 <= 2.0, "2-proc speedup out of range: {at2}");
}

/// `--run --exec-mode threaded` executes on real threads and reports a
/// wall-clock measurement; output must match the simulated-mode run.
#[test]
fn cli_threaded_exec_mode_runs_and_matches() {
    use std::io::Write;
    let dir = std::env::temp_dir().join("polarisc_threaded");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("red.f");
    let mut f = std::fs::File::create(&path).unwrap();
    writeln!(
        f,
        "program red\nreal a(10000)\ns = 0.0\ndo i = 1, 10000\n  a(i) = i*1.0\nend do\ndo i = 1, 10000\n  s = s + a(i)\nend do\nprint *, s\nend"
    )
    .unwrap();
    drop(f);
    let exe = env!("CARGO_BIN_EXE_polarisc");
    let run = |extra: &[&str]| {
        let mut args = vec!["--quiet", "--run"];
        args.extend_from_slice(extra);
        args.push(path.to_str().unwrap());
        let out = std::process::Command::new(exe).args(&args).output().unwrap();
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (sim_out, _) = run(&[]);
    let (thr_out, thr_err) = run(&["--exec-mode", "threaded", "--threads", "3"]);
    assert_eq!(sim_out, thr_out, "threaded output diverges from simulated");
    assert!(thr_err.contains("threaded(3 threads)"), "{thr_err}");
    assert!(thr_err.contains("wall"), "{thr_err}");
}

/// A dependence distance beyond any stand-in for an unknown trip count
/// (`N`, `M` are read from memory) is still a dependence: the loop that
/// carries it stays serial, the `(<, >)` nest is left alone, and every
/// loop that is marked PARALLEL is one the static race detector — which
/// uses the range test only — independently calls clean.
#[test]
fn huge_offsets_under_symbolic_bounds_ship_no_wrong_parallel() {
    use polaris::verify::{verify_compiled, RaceVerdict};
    let recurrence = "program t\nreal a(100000000)\ninteger ia(10)\nn = ia(1)\n\
                      do i = 1, n\n  a(i) = a(i+40000000) + 1.0\nend do\n\
                      print *, a(1)\nend\n";
    let skewed = "program t\nreal a(2,50000000)\ninteger ia(10)\nn = ia(1)\nm = ia(2)\n\
                  do i = 2, n\n  do j = 1, m\n    a(i,j) = a(i-1,j+40000000) + 1.0\n  end do\n\
                  end do\nprint *, a(2,1)\nend\n";
    for (src, parallel) in [(recurrence, 0), (skewed, 1)] {
        let out = parallelize(src, &PassOptions::polaris()).unwrap();
        assert!(out.report.nest.certs.is_empty(), "{:?}", out.report.nest.certs);
        let outermost = out.program.units[0].body.loops()[0];
        assert_eq!(outermost.var, "I", "{}", out.annotated_source);
        assert!(!outermost.par.parallel, "{}", out.annotated_source);
        let race = verify_compiled(&out.program, &out.report).race.expect("race report");
        assert_eq!(race.parallel_claims(), parallel, "{}", out.annotated_source);
        assert_eq!(race.count(RaceVerdict::Clean), parallel, "{:?}", race.loops);
    }
}

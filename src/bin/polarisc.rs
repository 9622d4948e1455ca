//! `polarisc` — the command-line driver, playing the role of the
//! original compiler's front door: read F-Mini source, restructure,
//! print the annotated program, optionally execute it on the simulated
//! multiprocessor.
//!
//! ```text
//! polarisc [OPTIONS] FILE.f
//!   --vfa           use the PFA-like baseline pipeline instead of Polaris
//!   --no-nest-opts  disable the loop-nest restructuring stages
//!                   (interchange, tiling, fusion); analysis still runs,
//!                   but no nest is transformed and no legality
//!                   certificate is emitted
//!   --report        print the per-loop analysis report
//!   --diag          print the per-stage pipeline diagnostics table, the
//!                   legality certificates behind every applied nest
//!                   transformation (direction-vector matrix included),
//!                   and the simulated speedup at --procs processors
//!   --run           execute on the machine and print speedup
//!   --oracle        execute serially with the dependence oracle attached
//!                   and audit every PARALLEL claim against the observed
//!                   cross-iteration dependences; prints the JSON report
//!                   to stdout (implies --quiet so stdout stays valid
//!                   JSON) and exits 2 on a soundness violation
//!   --procs N       processor count for --run/--diag (default 8, >= 1)
//!   --exec-mode M   parallel-loop backend for --run: `simulated`
//!                   (default; cycle-model multiprocessor) or `threaded`
//!                   (real OS threads, chunked scheduling)
//!   --threads N     threads for --exec-mode threaded, the calling
//!                   one included (default: the --procs value)
//!   --schedule S    parallel-loop scheduling policy for --run/--diag:
//!                   `static` (default; contiguous blocks, one per
//!                   worker), `stealing` (small chunks claimed one at
//!                   a time — better balance for skewed
//!                   per-iteration costs), or `adaptive` (per-loop
//!                   runtime dispatcher: first invocation measures,
//!                   later invocations re-dispatch to the measured
//!                   winner, sustained LRPD misspeculation throttles
//!                   speculation with hysteresis; --diag prints the
//!                   decision table)
//!   --engine E      statement execution engine for --run/--diag:
//!                   `vm` (default; compact bytecode + register VM) or
//!                   `tree-walk` (the recursive reference interpreter kept
//!                   as the VM's differential oracle; --oracle always
//!                   traces on it)
//!   --fuel N        execution step budget for --run (default unlimited)
//!   --validate      run the adversarial validation after --run
//!   --profile       print the per-loop execution profile after --run
//!   --verify        print the verification JSON report: inter-pass
//!                   invariant-checker totals, a final re-validation of
//!                   the emitted program, and the static race detector's
//!                   verdict for every PARALLEL claim; with --oracle the
//!                   report gains a static-vs-dynamic agreement block
//!                   (implies --quiet so stdout stays valid JSON)
//!   --lint          print the F-Mini lint findings as a JSON document
//!                   with line:col spans (implies --quiet); lint errors
//!                   are violations, lint warnings degrade the exit code
//!   --strict        escalate a degraded compile (rolled-back stage, lint
//!                   warnings) from exit 1 to exit 2
//!   --quiet         suppress the annotated source
//!   --trace PATH    record an observability trace of the compile (and of
//!                   --run / --oracle) and write it to PATH in Chrome
//!                   trace-event format (load in chrome://tracing or Perfetto)
//!   --metrics       print the observability counters/spans as a JSON
//!                   metrics document on stdout (implies --quiet and
//!                   suppresses --run's program-output echo, so stdout is
//!                   exactly the document)
//!   --clock MODE    observability clock: `monotonic` (default; real
//!                   microseconds) or `virtual` (deterministic tick per
//!                   event — two identical runs give byte-identical traces)
//!   --inject-fault STAGE
//!                   deliberately panic inside the named pipeline stage
//!                   (testing aid: exercises rollback and the degraded
//!                   exit path end to end); `STAGE:force` instead makes a
//!                   nest stage (interchange/tile/fuse) apply its best
//!                   *rejected* candidate — the emitted certificate is a
//!                   lie only the `--verify` re-prover catches
//! ```
//!
//! Exit codes, uniform across `--oracle`, `--verify` and `--lint`:
//!
//! * `0` — success: compiled cleanly, nothing flagged.
//! * `1` — *degraded* (a pipeline stage rolled back, or lint warnings),
//!   or a hard failure (bad input, compile error, execution error,
//!   output mismatch).
//! * `2` — *violation*: an invariant violation caught by the inter-pass
//!   verifier, an `--oracle` PARALLEL claim contradicted by an observed
//!   dependence, a static-clean/oracle-violating agreement soundness
//!   failure, or a lint error. Violations exit 2 with or without
//!   `--strict`.
//!
//! `--strict` escalates the degraded exit from `1` to `2` for CI gates
//! that want full optimization or nothing.

use polaris::machine::{Engine, Schedule};
use polaris::{MachineConfig, PassOptions};
use std::process::ExitCode;

const USAGE: &str = "usage: polarisc [--vfa] [--no-nest-opts] [--report] [--diag] [--run] \
                     [--oracle] [--verify] \
                     [--lint] [--procs N] [--exec-mode simulated|threaded] [--threads N] \
                     [--schedule static|adaptive|stealing] [--engine vm|tree-walk] [--fuel N] \
                     [--validate] [--profile] [--strict] [--quiet] [--trace PATH] [--metrics] \
                     [--clock monotonic|virtual] FILE.f";

/// Work-stealing chunk size when `--schedule stealing` is given without
/// further tuning: a few chunks per worker at the default trip counts.
const STEAL_CHUNK: usize = 4;

const EXIT_DEGRADED: u8 = 1;
const EXIT_VIOLATION: u8 = 2;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut file: Option<String> = None;
    let mut vfa = false;
    let mut no_nest_opts = false;
    let mut report = false;
    let mut diag = false;
    let mut run = false;
    let mut oracle = false;
    let mut verify = false;
    let mut lint = false;
    let mut validate = false;
    let mut profile = false;
    let mut strict = false;
    let mut quiet = false;
    let mut procs = 8usize;
    let mut threaded = false;
    let mut threads: Option<usize> = None;
    let mut schedule = Schedule::Static;
    let mut adaptive_ctrl: Option<std::sync::Arc<polaris::machine::AdaptiveController>> = None;
    let mut engine = Engine::default();
    let mut fuel: Option<u64> = None;
    let mut inject: Vec<String> = Vec::new();
    let mut trace_path: Option<String> = None;
    let mut metrics = false;
    let mut clock = polaris::obs::ClockMode::Monotonic;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--vfa" => vfa = true,
            "--no-nest-opts" => no_nest_opts = true,
            "--report" => report = true,
            "--diag" => diag = true,
            "--run" => run = true,
            "--oracle" => {
                oracle = true;
                quiet = true;
            }
            "--verify" => {
                verify = true;
                quiet = true;
            }
            "--lint" => {
                lint = true;
                quiet = true;
            }
            "--validate" => validate = true,
            "--profile" => profile = true,
            "--strict" => strict = true,
            "--quiet" => quiet = true,
            "--procs" => {
                procs = match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) => n,
                    None => {
                        eprintln!("polarisc: --procs needs a number");
                        return ExitCode::FAILURE;
                    }
                };
                if procs < 1 {
                    eprintln!("polarisc: --procs must be at least 1 (got {procs})");
                    return ExitCode::FAILURE;
                }
            }
            "--exec-mode" => match args.next().as_deref() {
                Some("simulated") => threaded = false,
                Some("threaded") => threaded = true,
                other => {
                    eprintln!(
                        "polarisc: --exec-mode needs `simulated` or `threaded` (got {})",
                        other.unwrap_or("nothing")
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--threads" => {
                threads = match args.next().and_then(|v| v.parse().ok()) {
                    Some(0) | None => {
                        eprintln!("polarisc: --threads needs a positive count");
                        return ExitCode::FAILURE;
                    }
                    some => some,
                };
            }
            "--schedule" => match args.next().as_deref() {
                Some("static") => {
                    schedule = Schedule::Static;
                    adaptive_ctrl = None;
                }
                Some("stealing") => {
                    schedule = Schedule::Stealing { chunk: STEAL_CHUNK };
                    adaptive_ctrl = None;
                }
                Some("adaptive") => {
                    schedule = Schedule::Static;
                    adaptive_ctrl =
                        Some(std::sync::Arc::new(polaris::machine::AdaptiveController::new()));
                }
                other => {
                    eprintln!(
                        "polarisc: --schedule needs `static`, `adaptive` or `stealing` (got {})",
                        other.unwrap_or("nothing")
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--engine" => {
                engine = match args.next().as_deref().and_then(Engine::parse) {
                    Some(e) => e,
                    None => {
                        eprintln!("polarisc: --engine needs `vm` or `tree-walk`");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--fuel" => {
                fuel = match args.next().and_then(|v| v.parse().ok()) {
                    Some(0) | None => {
                        eprintln!("polarisc: --fuel needs a positive step count");
                        return ExitCode::FAILURE;
                    }
                    some => some,
                }
            }
            "--trace" => match args.next() {
                Some(path) => trace_path = Some(path),
                None => {
                    eprintln!("polarisc: --trace needs an output path");
                    return ExitCode::FAILURE;
                }
            },
            "--metrics" => {
                metrics = true;
                quiet = true;
            }
            "--clock" => match args.next().as_deref() {
                Some("monotonic") => clock = polaris::obs::ClockMode::Monotonic,
                Some("virtual") => clock = polaris::obs::ClockMode::Virtual,
                other => {
                    eprintln!(
                        "polarisc: --clock needs `monotonic` or `virtual` (got {})",
                        other.unwrap_or("nothing")
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--inject-fault" => match args.next() {
                Some(stage) => inject.push(stage),
                None => {
                    eprintln!("polarisc: --inject-fault needs a stage name");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') => file = Some(other.to_string()),
            other => {
                eprintln!("polarisc: unknown option `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(file) = file else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let source = match std::fs::read_to_string(&file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("polarisc: cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Parse exactly once; the untransformed program is kept as the
    // serial reference and the transformed copy goes through the
    // pipeline.
    let original = match polaris_ir::parse(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("polarisc: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut opts = if vfa { PassOptions::vfa() } else { PassOptions::polaris() };
    if no_nest_opts {
        opts.nest_opts = false;
    }
    if !inject.is_empty() {
        let known = polaris::core::pipeline::STAGE_NAMES;
        const NEST_STAGES: [&str; 3] = ["interchange", "tile", "fuse"];
        let mut plan = polaris::core::pipeline::FaultPlan::none();
        for spec in &inject {
            if let Some(stage) = spec.strip_suffix(":force") {
                if !NEST_STAGES.contains(&stage) {
                    eprintln!(
                        "polarisc: `:force` needs a nest stage (stages: {})",
                        NEST_STAGES.join(", ")
                    );
                    return ExitCode::FAILURE;
                }
                plan = plan.and_point(polaris::core::pipeline::FaultPoint {
                    stage: stage.to_string(),
                    unit: None,
                    kind: polaris::core::pipeline::FaultKind::ForceIllegal,
                });
            } else if known.contains(&spec.as_str()) {
                plan = plan.and_panic_in(spec.clone());
            } else {
                eprintln!("polarisc: unknown stage `{spec}` (stages: {})", known.join(", "));
                return ExitCode::FAILURE;
            }
        }
        opts = opts.with_faults(plan);
    }
    // One recorder for the whole invocation: compile, execution and the
    // oracle audit all land in the same trace/metrics document. Disabled
    // (every hook a no-op) unless --trace or --metrics asked for it.
    let rec = if trace_path.is_some() || metrics {
        polaris::obs::Recorder::with_clock(clock)
    } else {
        polaris::obs::Recorder::disabled()
    };

    let mut program = original.clone();
    let rep = match polaris::core::compile_recorded(&mut program, &opts, &rec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("polarisc: {e}");
            return ExitCode::FAILURE;
        }
    };

    if !quiet {
        print!("{}", polaris_ir::printer::print_program(&program));
    }
    if report {
        eprintln!();
        eprintln!(
            "pipeline: {} call sites inlined, {} inductions removed, {} reductions flagged",
            rep.inline.call_sites_expanded,
            rep.induction.additive_removed + rep.induction.multiplicative_removed,
            rep.reductions_flagged
        );
        for l in &rep.loops {
            let verdict = if l.parallel {
                "PARALLEL".to_string()
            } else if l.speculative {
                "SPECULATIVE".to_string()
            } else {
                format!("serial ({})", l.serial_reason.as_deref().unwrap_or("?"))
            };
            let mut extra = String::new();
            if !l.private.is_empty() {
                extra.push_str(&format!(" private={:?}", l.private));
            }
            if !l.reductions.is_empty() {
                extra.push_str(&format!(" reductions={:?}", l.reductions));
            }
            if !l.index_facts.is_empty() {
                extra.push_str(&format!(" index-facts={:?}", l.index_facts));
            }
            eprintln!("  {:<24} {verdict}{extra}", l.label);
        }
        if rep.idxprop.proved > 0 {
            eprintln!(
                "idxprop: {}/{} index arrays proved ({} injective, {} monotone, {} bounded, {} permutations); property rule {}/{} proved",
                rep.idxprop.proved,
                rep.idxprop.arrays_analyzed,
                rep.idxprop.injective,
                rep.idxprop.monotone,
                rep.idxprop.bounded,
                rep.idxprop.permutations,
                rep.dd_props.1,
                rep.dd_props.0,
            );
        }
    }
    if diag {
        eprintln!();
        eprintln!("{:<16} {:<12} {:>10} {:>9}", "stage", "outcome", "ir delta", "time");
        for s in &rep.stages {
            let outcome = match &s.outcome {
                polaris::core::StageOutcome::Ok => "ok".to_string(),
                polaris::core::StageOutcome::Skipped => "skipped".to_string(),
                polaris::core::StageOutcome::RolledBack { reason } => {
                    format!("ROLLED BACK ({reason})")
                }
            };
            eprintln!(
                "{:<16} {:<12} {:>+10} {:>8.1?}",
                s.name, outcome, s.ir_delta, s.duration
            );
        }
        // The legality certificates behind every applied nest
        // transformation: the direction/distance matrix the prover
        // judged, and the transformation it licenses, then every rejected
        // candidate. `--verify` re-derives each certificate from the
        // emitted IR.
        if !rep.nest.certs.is_empty() || !rep.nest.rejections.is_empty() {
            eprintln!();
            eprintln!(
                "legality certificates ({} applied, {} candidate(s) rejected):",
                rep.nest.certs.len(),
                rep.nest.rejections.len()
            );
            for cert in &rep.nest.certs {
                eprintln!(
                    "  {:<12} {}/{} over ({}): {}",
                    cert.kind.stage(),
                    cert.unit,
                    cert.label,
                    cert.loop_vars.join(", "),
                    cert.kind.describe()
                );
                for v in &cert.vectors {
                    eprintln!("      {}", v.render());
                }
            }
            for reason in &rep.nest.rejections {
                eprintln!("  rejected     {reason}");
            }
        }
        // Simulated speedup of the restructured program at the requested
        // processor count. (--procs used to be accepted here but never
        // consulted; the diagnostics always reflected the 8-proc
        // default.)
        let diag_fuel = fuel.unwrap_or(50_000_000);
        let serial_cfg = MachineConfig::serial().with_fuel(diag_fuel).with_engine(engine);
        let mut par_cfg = MachineConfig::challenge_8()
            .with_procs(procs)
            .with_fuel(diag_fuel)
            .with_engine(engine);
        par_cfg.schedule = schedule;
        if let Some(ctrl) = &adaptive_ctrl {
            par_cfg = par_cfg.with_adaptive(std::sync::Arc::clone(ctrl));
        }
        match (
            polaris_machine::run(&original, &serial_cfg),
            polaris_machine::run(&program, &par_cfg),
        ) {
            (Ok(serial), Ok(parallel)) => eprintln!(
                "simulated speedup @ {procs} procs: {:.2}x ({} -> {} cycles)",
                serial.cycles as f64 / parallel.cycles as f64,
                serial.cycles,
                parallel.cycles
            ),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("simulated speedup @ {procs} procs: n/a ({e})")
            }
        }
        if let Some(ctrl) = &adaptive_ctrl {
            eprintln!();
            eprintln!("adaptive decision table:");
            eprintln!(
                "{:<20} {:>4} {:<12} {:<10} {:>7} {:>8} {:>8} {:<12}",
                "loop", "inv", "strategy", "chunking", "threads", "trip", "cv", "event"
            );
            for r in ctrl.decision_rows() {
                eprintln!(
                    "{:<20} {:>4} {:<12} {:<10} {:>7} {:>8} {:>8.3} {:<12}",
                    r.label,
                    r.invocations,
                    r.strategy,
                    r.chunking,
                    r.threads,
                    r.trip,
                    r.cost_cv,
                    r.event
                );
            }
        }
    }

    if run {
        let serial_cfg = match fuel {
            Some(f) => MachineConfig::serial().with_fuel(f),
            None => MachineConfig::serial(),
        }
        .with_engine(engine);
        let serial = match polaris_machine::run(&original, &serial_cfg) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("polarisc: serial execution failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut cfg = if threaded {
            MachineConfig::threaded(threads.unwrap_or(procs), schedule)
        } else {
            let mut c = MachineConfig::challenge_8().with_procs(procs);
            c.schedule = schedule;
            c
        }
        .with_engine(engine);
        if let Some(ctrl) = &adaptive_ctrl {
            cfg = cfg.with_adaptive(std::sync::Arc::clone(ctrl));
        }
        if let Some(f) = fuel {
            cfg = cfg.with_fuel(f);
        }
        let parallel = match polaris_machine::run_recorded(&program, &cfg, &rec) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("polarisc: parallel execution failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprintln!();
        if !metrics {
            for line in &parallel.output {
                println!("{line}");
            }
        }
        if threaded {
            let n = threads.unwrap_or(procs);
            eprintln!(
                "serial {:.3}s(sim)  threaded({n} threads) wall {:.3}ms  simulated-model speedup {:.2}x",
                serial.seconds(),
                parallel.wall.as_secs_f64() * 1e3,
                serial.cycles as f64 / parallel.cycles as f64
            );
        } else {
            eprintln!(
                "serial {:.3}s  parallel({procs} procs) {:.3}s  speedup {:.2}x",
                serial.seconds(),
                parallel.seconds(),
                serial.cycles as f64 / parallel.cycles as f64
            );
        }
        if profile {
            eprintln!();
            eprint!("{}", parallel.profile());
        }
        if serial.output != parallel.output {
            eprintln!("polarisc: OUTPUT MISMATCH between serial and parallel runs!");
            return ExitCode::FAILURE;
        }
        if validate {
            match polaris_machine::run_validated(&program, &cfg) {
                Ok(_) => eprintln!("validation: adversarial execution matches sequential"),
                Err(e) => {
                    eprintln!("validation FAILED: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    let mut audit_report = None;
    if oracle {
        let mut cfg = MachineConfig::serial();
        cfg.fuel = fuel;
        let audit = match polaris_machine::audit_recorded(&program, &rep, &cfg, &rec) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("polarisc: oracle execution failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!("{}", audit.to_json());
        for v in audit.violations() {
            eprintln!(
                "polarisc: ORACLE VIOLATION in {} ({} dependence on `{}`): {}",
                v.label, v.dep.kind, v.dep.var, v.detail
            );
        }
        audit_report = Some(audit);
    }

    let mut verify_violation = false;
    if verify {
        let v = polaris::verify::verify_compiled(&program, &rep);
        v.record(&rec);
        let agreement = match (&audit_report, &v.race) {
            (Some(audit), Some(race)) => Some(polaris::verify::agreement(race, audit)),
            _ => None,
        };
        println!("{}", v.to_json(agreement.as_ref()));
        for violation in &v.final_violations {
            eprintln!("polarisc: VERIFIER VIOLATION in emitted program: {violation}");
        }
        if let Some(a) = &agreement {
            for label in &a.soundness_failures {
                eprintln!(
                    "polarisc: AGREEMENT SOUNDNESS FAILURE: static race detector said \
                     `clean` for {label} but the oracle observed a dependence violation"
                );
            }
            verify_violation |= !a.sound();
        }
        verify_violation |= !v.ok();
    }

    let (mut lint_errors, mut lint_warnings) = (0, 0);
    if lint {
        let findings = polaris::verify::lint_program(&original, &source);
        rec.count(polaris::obs::Counter::VerifyLintFindings, findings.findings.len() as u64);
        print!("{}", findings.to_json());
        lint_errors = findings.errors();
        lint_warnings = findings.warnings();
    }

    // Emit the observability documents before the exit-code decisions so
    // a degraded compile or a violation still leaves a trace.
    if let Some(path) = &trace_path {
        if let Err(e) = std::fs::write(path, rec.chrome_trace_json()) {
            eprintln!("polarisc: cannot write trace {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if metrics {
        println!("{}", rec.metrics_json());
    }

    // Exit-code contract (uniform across --oracle/--verify/--lint):
    // violations always exit 2; a degraded-but-sound result exits 1, or
    // 2 under --strict; hard failures exited 1 above.
    let oracle_violation = audit_report.as_ref().is_some_and(|a| a.has_violations());
    let invariant_violation = rep.verify.violations > 0;
    if oracle_violation || invariant_violation || verify_violation || lint_errors > 0 {
        if invariant_violation {
            eprintln!(
                "polarisc: inter-pass verifier caught {} invariant violation(s) \
                 (rolled back: {})",
                rep.verify.violations,
                rep.rolled_back_stages().join(", ")
            );
        }
        if lint_errors > 0 {
            eprintln!("polarisc: {lint_errors} lint error(s)");
        }
        return ExitCode::from(EXIT_VIOLATION);
    }

    let degraded = rep.degraded() || lint_warnings > 0;
    if degraded {
        if rep.degraded() {
            let rolled = rep.rolled_back_stages().join(", ");
            eprintln!("polarisc: warning: pipeline degraded (rolled back: {rolled})");
        }
        if lint_warnings > 0 {
            eprintln!("polarisc: {lint_warnings} lint warning(s)");
        }
        if strict {
            eprintln!("polarisc: degraded result escalated under --strict");
            return ExitCode::from(EXIT_VIOLATION);
        }
        return ExitCode::from(EXIT_DEGRADED);
    }
    ExitCode::SUCCESS
}

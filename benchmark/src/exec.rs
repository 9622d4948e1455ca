//! `exec_serial` and `exec_threaded`: running restructured programs.
//!
//! One operation is `polaris_machine::run` of one of the 26 kernels,
//! restructured once in set-up. `exec_serial` uses the serial machine
//! (VM engine); `exec_threaded` uses one real thread per core.

use crate::report::{
    end_to_end, host_cores, round_ops_per_s, trace_overhead_share, Class, Metrics, Outcome, Tally,
    PER_LAYER,
};
use crate::run::{write_trace, Phase, Settings, TracedPhase, CAT};
use crate::stats::{fastest, geomean, mean, ratio};
use crate::suite::{self, Input};
use crate::yardstick::slowdown_of;
use polaris::machine::bytecode::{self, Instr};
use polaris::machine::{lower, Schedule};
use polaris::obs::Recorder;
use polaris::{Engine, MachineConfig, PassOptions, Program, RunResult};
use std::hint::black_box;
use std::time::Instant;

/// Rounds of each comparison configuration on a traced run.
const PROBE_ROUNDS: usize = 3;
/// Chunk size of the dynamic and stealing schedules, as `polarisc` uses.
const CHUNK: usize = 4;

struct Prepared {
    input: Input,
    /// The restructured program with its simulated speedup, or why
    /// set-up could not produce one that reproduces the reference (every
    /// operation on it then fails).
    program: Result<(Program, f64), String>,
}

fn prepare(input: Input, cfg: &MachineConfig) -> Prepared {
    let program = polaris::core::parse_and_compile(&input.source, &PassOptions::polaris())
        .map_err(|e| format!("compile: {e}"))
        .and_then(|(program, report)| {
            if report.degraded() {
                return Err(format!("degraded: rolled back {:?}", report.rolled_back_stages()));
            }
            let run = polaris::machine::run(&program, cfg).map_err(|e| format!("run: {e}"))?;
            if !suite::matches_reference(&run.output, &input.reference) {
                return Err(format!(
                    "output {:?} is not the reference {:?}",
                    run.output, input.reference
                ));
            }
            let sim8 = polaris::machine::run(&program, &MachineConfig::challenge_8())
                .map_err(|e| format!("simulated run: {e}"))?;
            let sim_speedup = suite::sim_speedup(&input.source, sim8.cycles)?;
            Ok((program, sim_speedup))
        });
    Prepared { input, program }
}

pub fn run(workload: &str, threaded: bool, settings: &Settings) -> Result<Outcome, String> {
    let cfg = if threaded {
        MachineConfig::threaded(host_cores(), Schedule::Static)
    } else {
        MachineConfig::serial()
    };
    let (prepared, setup_s) = settings.timed_setup(|| {
        Ok(suite::kernels(&settings.expected_dir)?
            .into_iter()
            .map(|k| prepare(k, &cfg))
            .collect::<Vec<_>>())
    })?;

    let mut classes: Vec<Class> =
        prepared.iter().map(|p| Class::new(&p.input.name, "program")).collect();
    let mut tally = Tally::default();
    let mut returned = Returned::default();
    let traced = settings.rounds(&mut classes, |class, phase, rec| {
        let p = &prepared[class];
        let program = match &p.program {
            Ok((program, _)) => program,
            Err(why) => {
                if phase != Phase::Warmup {
                    tally.note(&p.input.name, Some(format!("set-up: {why}")));
                }
                return None;
            }
        };
        let started = Instant::now();
        let op = rec.span(CAT, "bench.op");
        let span = rec.span(CAT, "machine.run");
        let result = polaris::machine::run_recorded(black_box(program), &cfg, rec);
        span.end();
        op.end();
        let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        if phase != Phase::Warmup {
            let defect = match &result {
                Err(e) => Some(format!("run: {e}")),
                Ok(r) if !suite::matches_reference(&r.output, &p.input.reference) => {
                    Some(format!("output {:?} is not the reference", r.output))
                }
                Ok(_) => None,
            };
            tally.note(&p.input.name, defect);
        }
        if let (Phase::Traced, Ok(r)) = (phase, &result) {
            returned.note(r);
            returned.note_code(program, rec);
        }
        Some(elapsed_ms)
    });

    let metrics = if settings.trace {
        let programs: Vec<&Program> =
            prepared.iter().filter_map(|p| Some(&p.program.as_ref().ok()?.0)).collect();
        let mut m = per_layer(&traced, &returned);
        m.set("obs.exec_trace_overhead_share", trace_overhead_share(&classes));
        if threaded {
            probe_threaded(
                &mut m,
                &programs,
                ratio(returned.parallel_invocations as f64, traced.rounds as f64),
            )?;
        } else {
            probe_serial(&mut m, &programs)?;
        }
        write_trace(settings, workload, &traced.last_recorder)?;
        m.set("bench.yardstick_us", mean(&traced.yard_ms) * 1e3);
        m.scale_to_nominal_speed(slowdown_of(&traced.yard_ms));
        m
    } else {
        let speedups = prepared.iter().filter_map(|p| Some(p.program.as_ref().ok()?.1));
        end_to_end(&classes, round_ops_per_s(&classes), setup_s, geomean(speedups))
    };
    Ok(Outcome { tally, metrics, classes })
}

/// What the traced rounds read from the values the operations
/// returned, summed over the rounds (every round returns the same).
#[derive(Default)]
struct Returned {
    sim_cycles: u64,
    loop_invocations: u64,
    parallel_invocations: u64,
    lrpd_pass: u64,
    lrpd_fail: u64,
    bytecode_instrs: usize,
    exec_fallbacks: usize,
}

impl Returned {
    fn note(&mut self, r: &RunResult) {
        self.sim_cycles += r.cycles;
        for stats in r.loops.values() {
            self.loop_invocations += stats.invocations;
            self.parallel_invocations += stats.parallel_invocations;
            self.lrpd_pass += stats.spec_success;
            self.lrpd_fail += stats.spec_fail;
        }
    }

    /// Lower and compile to bytecode under spans of their own (`run`
    /// does both internally, inside `machine.run`), and size the code.
    fn note_code(&mut self, program: &Program, rec: &Recorder) {
        let span = rec.span(CAT, "machine.lower");
        let image = lower::lower(black_box(program));
        span.end();
        let Ok(image) = image else { return };
        let span = rec.span(CAT, "machine.bytecode_compile");
        let unit = bytecode::compile(black_box(&image));
        span.end();
        if let Ok(unit) = unit {
            for block in &unit.blocks {
                self.bytecode_instrs += block.code.len();
                self.exec_fallbacks +=
                    block.code.iter().filter(|i| matches!(i, Instr::Exec(_))).count();
            }
        }
    }
}

fn per_layer(traced: &TracedPhase, returned: &Returned) -> Metrics {
    let mut m = Metrics::zeroed(PER_LAYER);
    let totals = &traced.totals;
    let r = returned;
    m.set("bench.host_cores", host_cores() as f64);
    m.set("bench.ops_traced", totals.count("bench.op") as f64);
    m.set("bench.op_us", totals.mean_us("bench.op"));
    m.set(
        "bench.attributed_share",
        ratio(totals.total_us("machine.run"), totals.total_us("bench.op")),
    );
    m.set("machine.run_us", totals.mean_us("machine.run"));
    m.set("machine.lower_us", totals.mean_us("machine.lower"));
    m.set("machine.bytecode_compile_us", totals.mean_us("machine.bytecode_compile"));
    m.set(
        "machine.ns_per_sim_cycle",
        ratio(totals.total_us("machine.run") * 1e3, r.sim_cycles as f64),
    );

    // counts are per round
    let per_round = |total: f64| ratio(total, traced.rounds as f64);
    m.set("machine.bytecode_instrs", per_round(r.bytecode_instrs as f64));
    m.set("machine.exec_fallbacks", per_round(r.exec_fallbacks as f64));
    m.set("machine.sim_cycles", per_round(r.sim_cycles as f64));
    m.set("machine.loop_invocations", per_round(r.loop_invocations as f64));
    m.set("machine.parallel_invocations", per_round(r.parallel_invocations as f64));
    let counters = traced.last_recorder.counters();
    let counter = |name: &str| counters.get(name).map_or(0.0, |v| *v as f64);
    m.set("machine.threaded_chunks", counter("exec.threaded.chunks"));
    m.set("machine.threaded_merge_bytes", counter("exec.threaded.merge_bytes"));
    m.set("runtime.lrpd_pass", per_round(r.lrpd_pass as f64));
    m.set("runtime.lrpd_fail", per_round(r.lrpd_fail as f64));
    m.set("runtime.lrpd_pass_share", ratio(r.lrpd_pass as f64, (r.lrpd_pass + r.lrpd_fail) as f64));
    m.set("obs.events_recorded", totals.events as f64);
    m.set("obs.events_dropped", totals.dropped as f64);
    m
}

/// Per-program fastest run time in ms over [`PROBE_ROUNDS`] rounds
/// under `cfg`.
fn probe_rounds(programs: &[&Program], cfg: &MachineConfig) -> Result<Vec<f64>, String> {
    let mut samples = vec![Vec::new(); programs.len()];
    for _ in 0..PROBE_ROUNDS {
        for (program, slot) in programs.iter().zip(&mut samples) {
            let started = Instant::now();
            black_box(polaris::machine::run(black_box(program), cfg))
                .map_err(|e| format!("probe run: {e}"))?;
            slot.push(started.elapsed().as_secs_f64() * 1e3);
        }
    }
    Ok(samples.iter().filter_map(|s| fastest(s)).collect())
}

/// Speed of configuration `x` over `y`: geomean of `y`'s time / `x`'s.
fn speed_over(x_ms: &[f64], y_ms: &[f64]) -> f64 {
    geomean(x_ms.iter().zip(y_ms).map(|(x, y)| y / x))
}

/// `exec_serial`'s comparisons: the tree-walker and the simulated
/// 8-processor machine.
fn probe_serial(m: &mut Metrics, programs: &[&Program]) -> Result<(), String> {
    let vm_ms = probe_rounds(programs, &MachineConfig::serial())?;
    let tree_ms = probe_rounds(programs, &MachineConfig::serial().with_engine(Engine::TreeWalk))?;
    m.set("machine.vm_over_tree", speed_over(&vm_ms, &tree_ms));
    let sim8_ms = probe_rounds(programs, &MachineConfig::challenge_8())?;
    m.set("machine.sim8_run_us", mean(&sim8_ms) * 1e3);
    Ok(())
}

/// `exec_threaded`'s comparisons: the serial machine and the two
/// dynamic schedules, on the same programs.
fn probe_threaded(
    m: &mut Metrics,
    programs: &[&Program],
    parallel_invocations: f64,
) -> Result<(), String> {
    let threads = host_cores();
    let static_ms = probe_rounds(programs, &MachineConfig::threaded(threads, Schedule::Static))?;
    let dynamic_ms = probe_rounds(
        programs,
        &MachineConfig::threaded(threads, Schedule::Dynamic { chunk: CHUNK }),
    )?;
    let stealing_ms = probe_rounds(
        programs,
        &MachineConfig::threaded(threads, Schedule::Stealing { chunk: CHUNK }),
    )?;
    let serial_ms = probe_rounds(programs, &MachineConfig::serial())?;
    m.set("machine.sched.dynamic_over_static", speed_over(&dynamic_ms, &static_ms));
    m.set("machine.sched.stealing_over_static", speed_over(&stealing_ms, &static_ms));
    m.set("machine.threaded_over_serial", speed_over(&static_ms, &serial_ms));
    m.set(
        "machine.threaded_overhead_us_per_invocation",
        ratio(
            (static_ms.iter().sum::<f64>() - serial_ms.iter().sum::<f64>()) * 1e3,
            parallel_invocations,
        ),
    );
    Ok(())
}

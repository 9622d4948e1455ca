//! `compile_suite` and `compile_large`: the checked compile.
//!
//! One operation is `parse` → `compile(PassOptions::polaris())` →
//! `verify_compiled` → `print_program` of one source, on one thread.

use crate::gen::generate_large;
use crate::report::{
    end_to_end, host_cores, round_ops_per_s, trace_overhead_share, Class, Metrics, Outcome, Tally,
    PER_LAYER,
};
use crate::run::{write_trace, Phase, Settings, SpanTotals, TracedPhase, CAT};
use crate::stats::{geomean, mean, ratio};
use crate::suite::{self, Input};
use crate::yardstick::{slowdown_of, Pace};
use polaris::core::STAGE_NAMES;
use polaris::obs::Recorder;
use polaris::verify::{RaceVerdict, VerifyReport};
use polaris::{CompileReport, MachineConfig, PassOptions, Program};
use std::hint::black_box;
use std::time::Instant;

/// Subroutine counts of the generated programs, one program per size.
/// A round of all four takes about 0.45 s on the development host, so a
/// 10-second run still gives each program some 20 samples.
const LARGE_SIZES: [usize; 4] = [8, 16, 32, 64];

/// Repetitions of each single-call probe (`validate`, `clone`, range test).
const PROBE_REPS: usize = 20;

pub struct Compiled {
    pub program: Program,
    pub report: CompileReport,
    pub verify: VerifyReport,
    pub text: String,
}

/// The operation. With a disabled recorder the spans cost one branch
/// each and `compile_recorded` is `compile`.
pub fn checked_compile(source: &str, rec: &Recorder) -> Result<Compiled, String> {
    let span = rec.span(CAT, "ir.parse");
    let mut program = polaris::ir::parse(source).map_err(|e| format!("parse: {e}"))?;
    span.end();
    let span = rec.span(CAT, "core.compile");
    let report = polaris::core::compile_recorded(&mut program, &PassOptions::polaris(), rec)
        .map_err(|e| format!("compile: {e}"))?;
    span.end();
    let span = rec.span(CAT, "verify.verify_compiled");
    let verify = polaris::verify::verify_compiled(&program, &report);
    span.end();
    let span = rec.span(CAT, "ir.print");
    let text = polaris::ir::printer::print_program(&program);
    span.end();
    Ok(Compiled { program, report, verify, text })
}

/// Why a checked compile does not count, if it does not.
pub fn compile_defect(c: &Compiled) -> Option<String> {
    if c.report.degraded() {
        Some(format!("degraded: rolled back {:?}", c.report.rolled_back_stages()))
    } else if !c.verify.ok() {
        Some("verify_compiled rejected the result".to_string())
    } else {
        None
    }
}

/// An input whose compile was executed once in set-up. `golden` is the
/// restructured program that reproduced the reference output; an
/// operation passes only by printing its text again. `Err`: the
/// reference was not reproduced, and every operation on this input fails.
struct Checked {
    input: Input,
    golden: Result<Golden, String>,
}

struct Golden {
    text: String,
    program: Program,
    sim_speedup: f64,
}

fn verified_pass(inputs: Vec<Input>) -> Vec<Checked> {
    inputs
        .into_iter()
        .map(|input| {
            let golden = checked_compile(&input.source, &Recorder::disabled()).and_then(|c| {
                if let Some(defect) = compile_defect(&c) {
                    return Err(defect);
                }
                let run = polaris::machine::run(&c.program, &MachineConfig::challenge_8())
                    .map_err(|e| format!("run: {e}"))?;
                if !suite::matches_reference(&run.output, &input.reference) {
                    return Err(format!(
                        "output {:?} is not the reference {:?}",
                        run.output, input.reference
                    ));
                }
                let sim_speedup = suite::sim_speedup(&input.source, run.cycles)?;
                Ok(Golden { text: c.text, program: c.program, sim_speedup })
            });
            Checked { input, golden }
        })
        .collect()
}

fn large_inputs(seed: u64) -> Result<Vec<Input>, String> {
    let mut inputs = Vec::new();
    for subs in LARGE_SIZES {
        let source = generate_large(seed, subs);
        let name = format!("LARGE{subs}");
        let reference = suite::reference_output(&source).map_err(|e| format!("{name}: {e}"))?;
        inputs.push(Input { name, source, reference });
    }
    Ok(inputs)
}

pub fn run(workload: &str, large: bool, settings: &Settings) -> Result<Outcome, String> {
    let (checked, setup_s) = settings.timed_setup(|| {
        let inputs = if large {
            large_inputs(settings.seed)?
        } else {
            suite::kernels(&settings.expected_dir)?
        };
        Ok(verified_pass(inputs))
    })?;

    let mut classes: Vec<Class> =
        checked.iter().map(|c| Class::new(&c.input.name, "program")).collect();
    let mut tally = Tally::default();
    let mut returned = Returned::default();
    let traced = settings.rounds(&mut classes, |class, phase, rec| {
        let c = &checked[class];
        let started = Instant::now();
        let op = rec.span(CAT, "bench.op");
        let result = checked_compile(black_box(&c.input.source), rec);
        op.end();
        let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        if phase != Phase::Warmup {
            let defect = match (&result, &c.golden) {
                (_, Err(why)) => Some(format!("set-up: {why}")),
                (Err(why), _) => Some(why.clone()),
                (Ok(got), Ok(golden)) => compile_defect(got).or_else(|| {
                    (got.text != golden.text)
                        .then(|| "printed program differs from set-up's".to_string())
                }),
            };
            tally.note(&c.input.name, defect);
        }
        if let (Phase::Traced, Ok(got)) = (phase, &result) {
            returned.note(&c.input.source, got);
        }
        Some(elapsed_ms)
    });

    let goldens: Vec<&Golden> = checked.iter().filter_map(|c| c.golden.as_ref().ok()).collect();
    let metrics = if settings.trace {
        let mut m = per_layer(&traced, &returned, &goldens);
        m.set("obs.compile_trace_overhead_share", trace_overhead_share(&classes));
        write_trace(settings, workload, &traced.last_recorder)?;
        tally.check_attribution(&m, "parse + pipeline + verify + print");
        m
    } else {
        let sim_speedup = geomean(goldens.iter().map(|g| g.sim_speedup));
        end_to_end(&classes, round_ops_per_s(&classes), setup_s, sim_speedup)
    };
    Ok(Outcome { tally, metrics, classes })
}

/// What the traced rounds read from the values the operations
/// returned, summed over the rounds (every round returns the same).
#[derive(Default)]
struct Returned {
    source_lines: u64,
    stage_us: [f64; STAGE_NAMES.len()],
    stmts_out: usize,
    loops_total: usize,
    loops_parallel: usize,
    loops_speculative: usize,
    range_run: u64,
    range_proved: u64,
    banerjee_vectors: u64,
    certs_emitted: usize,
    invariant_checks: u64,
    stages_rolled_back: usize,
    race_claims: usize,
    race_clean: usize,
    certs_rejected: usize,
}

impl Returned {
    fn note(&mut self, source: &str, c: &Compiled) {
        self.source_lines += source.lines().count() as u64;
        for stage in &c.report.stages {
            if let Some(i) = STAGE_NAMES.iter().position(|n| *n == stage.name) {
                self.stage_us[i] += stage.duration.as_secs_f64() * 1e6;
            }
        }
        self.stmts_out += polaris::core::pipeline::ir_size(&c.program);
        self.loops_total += c.report.loops.len();
        self.loops_parallel += c.report.parallel_loops();
        self.loops_speculative += c.report.speculative_loops();
        self.range_run += c.report.dd_range.0;
        self.range_proved += c.report.dd_range.1;
        self.banerjee_vectors += c.report.dd_counters.0;
        self.certs_emitted += c.report.nest.certs.len();
        self.invariant_checks += c.report.verify.invariants_checked;
        self.stages_rolled_back += c.report.rolled_back_stages().len();
        if let Some(race) = &c.verify.race {
            self.race_claims += race.parallel_claims();
            self.race_clean += race.count(RaceVerdict::Clean);
        }
        self.certs_rejected += c.verify.rejected_certs().len();
    }
}

fn per_layer(traced: &TracedPhase, returned: &Returned, goldens: &[&Golden]) -> Metrics {
    let mut m = Metrics::zeroed(PER_LAYER);
    let totals = &traced.totals;
    let ops = totals.count("bench.op") as f64;
    let op_us = totals.mean_us("bench.op");
    let parse_us = totals.mean_us("ir.parse");
    let pipeline_us = totals.mean_us("core.compile");
    let verify_us = totals.mean_us("verify.verify_compiled");
    let print_us = totals.mean_us("ir.print");
    m.set("bench.host_cores", host_cores() as f64);
    m.set("bench.ops_traced", ops);
    m.set("bench.op_us", op_us);
    m.set("bench.attributed_share", ratio(parse_us + pipeline_us + verify_us + print_us, op_us));

    m.set("ir.parse_us", parse_us);
    m.set("ir.lines_per_s", ratio(returned.source_lines as f64, totals.total_us("ir.parse") / 1e6));
    m.set("ir.print_us", print_us);

    m.set("core.pipeline_us", pipeline_us);
    let mut stages_us = 0.0;
    for (name, total) in STAGE_NAMES.iter().zip(returned.stage_us) {
        m.set(&format!("core.stage.{name}_us"), ratio(total, ops));
        stages_us += ratio(total, ops);
    }
    m.set("core.overhead_us", pipeline_us - stages_us);
    m.set("core.overhead_share", ratio(pipeline_us - stages_us, pipeline_us));
    m.set("verify.verify_us", verify_us);
    m.set("verify.share_of_compile", ratio(verify_us, op_us));

    // counts are per round
    let per_round = |total: f64| ratio(total, traced.rounds as f64);
    let r = returned;
    m.set("ir.stmts_out", per_round(r.stmts_out as f64));
    m.set("core.loops_total", per_round(r.loops_total as f64));
    m.set("core.loops_parallel", per_round(r.loops_parallel as f64));
    m.set("core.loops_speculative", per_round(r.loops_speculative as f64));
    m.set("core.parallel_share", ratio(r.loops_parallel as f64, r.loops_total as f64));
    m.set("core.dd.range_run", per_round(r.range_run as f64));
    m.set("core.dd.range_proved_share", ratio(r.range_proved as f64, r.range_run as f64));
    m.set("core.dd.banerjee_vectors", per_round(r.banerjee_vectors as f64));
    m.set("core.nest.certs_emitted", per_round(r.certs_emitted as f64));
    m.set("core.invariant_checks", per_round(r.invariant_checks as f64));
    m.set("core.stages_rolled_back", per_round(r.stages_rolled_back as f64));
    m.set("verify.race_claims", per_round(r.race_claims as f64));
    m.set("verify.race_clean_share", ratio(r.race_clean as f64, r.race_claims as f64));
    m.set("verify.certs_rejected", per_round(r.certs_rejected as f64));

    let probes = Recorder::monotonic();
    let mut pace = Pace::default();
    for program in goldens.iter().map(|g| &g.program) {
        let started = Instant::now();
        for _ in 0..PROBE_REPS {
            let span = probes.span(CAT, "ir.validate");
            let _ = black_box(polaris::ir::validate::validate_program(black_box(program)));
            span.end();
            let span = probes.span(CAT, "ir.clone");
            black_box(Program::clone(black_box(program)));
            span.end();
        }
        pace.after(started.elapsed().as_secs_f64() * 1e3);
    }
    let started = Instant::now();
    crate::symbolic::probe(&probes, PROBE_REPS);
    pace.after(started.elapsed().as_secs_f64() * 1e3);
    let mut probe_totals = SpanTotals::default();
    probe_totals.absorb(&probes);
    m.set("ir.validate_us", probe_totals.mean_us("ir.validate"));
    m.set("ir.clone_us", probe_totals.mean_us("ir.clone"));
    m.set("symbolic.range_test_trfd_us", probe_totals.mean_us("symbolic.range_test_trfd"));
    m.set("symbolic.range_test_ocean_us", probe_totals.mean_us("symbolic.range_test_ocean"));

    m.set("obs.events_recorded", (totals.events + probe_totals.events) as f64);
    m.set("obs.events_dropped", (totals.dropped + probe_totals.dropped) as f64);

    let mut yard_ms = pace.take();
    yard_ms.extend(&traced.yard_ms);
    m.set("bench.yardstick_us", mean(&yard_ms) * 1e3);
    m.scale_to_nominal_speed(slowdown_of(&yard_ms));
    m
}

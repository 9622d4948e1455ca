//! `polaris-benchmark`: the repository's benchmark.
//!
//! ```text
//! polaris-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one run of one workload; the last line of standard output is the
//!     result as one JSON object (see BENCHMARK.json and README.md)
//! polaris-benchmark --all [--seed N] [--seconds S] [--check-repeat]
//!     every workload, each run in a child process of its own, untraced
//!     and traced; every metric printed by name and unit
//! ```
//!
//! Layers are measured from outside: the benchmark times calls into
//! public functions of the workspace's crates and reads what they
//! return. Nothing under `crates/` or `src/` knows it is being measured.

mod compile;
mod daemon;
mod exec;
mod gen;
mod report;
mod run;
mod stats;
mod suite;
mod symbolic;
mod yardstick;

use polaris::daemon::proto::Json;
use report::Outcome;
use run::Settings;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// BENCHMARK.json records what each runs and why it was chosen.
const WORKLOADS: &[&str] =
    &["compile_suite", "compile_large", "exec_serial", "exec_threaded", "daemon_mixed"];

/// Exact metrics: two runs of one commit must agree to the last digit.
const EXACT: &[&str] = &["sim_speedup_geomean", "machine.sim_cycles", "machine.bytecode_instrs"];

struct Args {
    workload: Option<String>,
    all: bool,
    check_repeat: bool,
    write_expected: bool,
    settings: Settings,
}

fn parse_args() -> Result<Args, String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut args = Args {
        workload: None,
        all: false,
        check_repeat: false,
        write_expected: false,
        settings: Settings {
            seed: 1,
            seconds: 15.0,
            trace: false,
            smoke: false,
            expected_dir: root.join("expected"),
            out_dir: root.join("out"),
        },
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.settings.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                args.settings.seconds = s;
            }
            "--trace" => {
                args.settings.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--expected-dir" => args.settings.expected_dir = PathBuf::from(value()?),
            "--out-dir" => args.settings.out_dir = PathBuf::from(value()?),
            "--smoke" => args.settings.smoke = true,
            "--all" => args.all = true,
            "--check-repeat" => args.check_repeat = true,
            "--write-expected" => args.write_expected = true,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(args)
}

fn run_workload(name: &str, settings: &Settings) -> Result<Outcome, String> {
    match name {
        "compile_suite" => compile::run(name, false, settings),
        "compile_large" => compile::run(name, true, settings),
        "exec_serial" => exec::run(name, false, settings),
        "exec_threaded" => exec::run(name, true, settings),
        "daemon_mixed" => daemon::run(name, settings),
        other => Err(format!("unknown workload {other:?}; the workloads are {WORKLOADS:?}")),
    }
}

/// One run of one workload in this process.
fn single(name: &str, settings: &Settings) -> Result<bool, String> {
    let outcome = run_workload(name, settings)?;
    for why in &outcome.tally.failures {
        eprintln!("{name}: FAILED {why}");
    }
    run::write_out(
        settings,
        &format!("report-{name}.json"),
        &outcome.detail_json(name, settings.seed),
    )?;
    for (metric, unit, value) in outcome.metrics.iter() {
        println!("{name:<14} {metric:<44} {value:>16.4} {unit}");
    }
    println!("{}", outcome.result_line());
    Ok(outcome.correct())
}

/// `(metric, value, unit)` rows of a result line.
type Rows = Vec<(String, f64, String)>;

/// Run one workload in a child process and read its result line back.
fn child(name: &str, settings: &Settings, trace: bool) -> Result<(bool, Rows), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &settings.seed.to_string()])
        .args([
            "--seconds",
            &settings.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .arg("--expected-dir")
        .arg(&settings.expected_dir)
        .arg("--out-dir")
        .arg(&settings.out_dir);
    if settings.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end
    let out = cmd.output().map_err(|e| format!("cannot start {name}: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line =
        stdout.lines().last().ok_or(format!("{name}: no result (exit {:?})", out.status.code()))?;
    let rows = parse_result(line).map_err(|e| format!("{name}: bad result line: {e}"))?;
    Ok((out.status.success() && rows.0, rows.1))
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.as_obj()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .ok_or(format!("no `{key}`"))
}

fn parse_result(line: &str) -> Result<(bool, Rows), String> {
    let v = Json::parse(line)?;
    let correct = matches!(field(&v, "correct")?, Json::Bool(true));
    let mut rows = Rows::new();
    for (name, m) in field(&v, "metrics")?.as_obj().ok_or("`metrics` is not an object")? {
        let Json::Num(value) = field(m, "value")? else {
            return Err(format!("`{name}` is not a number"));
        };
        let unit = field(m, "unit")?.as_str().ok_or(format!("`{name}` has no unit"))?;
        rows.push((name.clone(), *value, unit.to_string()));
    }
    Ok((correct, rows))
}

/// `(name, bound)` of BENCHMARK.json's end-to-end metrics.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(&text)?;
    let Json::Arr(items) = field(&doc, "end_to_end")? else {
        return Err("`end_to_end` in BENCHMARK.json is not a list".to_string());
    };
    items
        .iter()
        .map(|m| match (field(m, "name")?.as_str(), field(m, "bound")?) {
            (Some(name), Json::Num(bound)) => Ok((name.to_string(), *bound)),
            _ => Err("malformed `end_to_end` entry in BENCHMARK.json".to_string()),
        })
        .collect()
}

/// The result set of one `--all`: every metric of every workload.
fn results_json(settings: &Settings, set: &[(&str, bool, Rows)]) -> String {
    let mut s = format!(
        "{{\n  \"host_cores\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"workloads\": {{\n",
        report::host_cores(),
        settings.seed,
        settings.seconds
    );
    for (w, name) in WORKLOADS.iter().enumerate() {
        let _ = writeln!(s, "    \"{name}\": {{");
        let rows: Vec<&(String, f64, String)> =
            set.iter().filter(|(n, _, _)| n == name).flat_map(|(_, _, rows)| rows).collect();
        for (i, (metric, value, unit)) in rows.iter().enumerate() {
            let comma = if i + 1 == rows.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "      \"{metric}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}{comma}"
            );
        }
        s.push_str(if w + 1 == WORKLOADS.len() { "    }\n" } else { "    },\n" });
    }
    s.push_str("  }\n}\n");
    s
}

/// Every workload, untraced then traced, each in a child of its own (so
/// that `peak_rss_mb` is per workload); the result set is also written
/// to `out/results.json`. With `check_repeat` the set runs twice: each
/// end-to-end metric must agree within its bound in BENCHMARK.json, and
/// each exact metric to the last digit.
fn all(settings: &Settings, check_repeat: bool) -> Result<bool, String> {
    let mut ok = true;
    let mut sets: Vec<Vec<(&str, bool, Rows)>> = Vec::new();
    for set in 0..if check_repeat { 2 } else { 1 } {
        let mut rows = Vec::new();
        for name in WORKLOADS {
            eprintln!("== {name} (set {})", set + 1);
            for trace in [false, true] {
                let (correct, metrics) = child(name, settings, trace)?;
                ok &= correct;
                for (metric, value, unit) in &metrics {
                    println!("{name:<14} {metric:<44} {value:>16.4} {unit}");
                }
                if !correct {
                    println!("{name:<14} INCORRECT (see standard error)");
                }
                rows.push((*name, trace, metrics));
            }
        }
        sets.push(rows);
    }
    run::write_out(settings, "results.json", &results_json(settings, &sets[0]))?;
    if check_repeat {
        let bounds = bounds()?;
        for ((name, _, first), (_, _, second)) in sets[0].iter().zip(&sets[1]) {
            for ((metric, a, _), (_, b, _)) in first.iter().zip(second) {
                let bound = bounds.iter().find(|(n, _)| n == metric).map(|(_, bound)| *bound);
                let why = match bound {
                    _ if EXACT.contains(&metric.as_str()) && a != b => {
                        "must repeat exactly".to_string()
                    }
                    Some(bound) if ((b - a) / a).abs() > bound => {
                        format!("differs by more than its bound {bound}")
                    }
                    _ => continue,
                };
                ok = false;
                println!("{name:<14} {metric:<44} REPEAT {a} vs {b}: {why}");
            }
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("polaris-benchmark: {e}");
            eprintln!(
                "usage: polaris-benchmark --workload NAME --seed N --seconds S --trace 0|1\n\
                 \x20      polaris-benchmark --all [--seed N] [--seconds S] [--check-repeat]"
            );
            return ExitCode::from(2);
        }
    };
    let verdict = if args.write_expected {
        suite::write_expected(&args.settings.expected_dir).map(|()| true)
    } else if args.all || args.check_repeat {
        all(&args.settings, args.check_repeat)
    } else if let Some(name) = &args.workload {
        single(name, &args.settings)
    } else {
        Err("give --workload NAME or --all".to_string())
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("polaris-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

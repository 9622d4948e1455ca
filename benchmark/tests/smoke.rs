//! Runs the built benchmark on fixed tiny counts (`--smoke`) and holds
//! its output to BENCHMARK.json: every named metric present, finite and
//! with the unit the file gives; and the correctness check can fail.

use polaris::daemon::proto::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_polaris-benchmark");

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// A fresh directory under the target directory, per test.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn get<'a>(v: &'a Json, key: &str) -> &'a Json {
    v.as_obj()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("no `{key}` in {v:?}"))
}

fn list<'a>(v: &'a Json, key: &str) -> &'a [Json] {
    match get(v, key) {
        Json::Arr(items) => items,
        other => panic!("`{key}` is not a list: {other:?}"),
    }
}

fn num(v: &Json) -> f64 {
    match v {
        Json::Num(n) => *n,
        other => panic!("not a number: {other:?}"),
    }
}

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json")).unwrap();
    Json::parse(&text).unwrap()
}

/// `(name, unit)` of the metrics under `key`.
fn named(doc: &Json, key: &str) -> Vec<(String, String)> {
    list(doc, key)
        .iter()
        .map(|m| {
            (
                get(m, "name").as_str().unwrap().to_string(),
                get(m, "unit").as_str().unwrap().to_string(),
            )
        })
        .collect()
}

/// Exit code and the parsed last line of standard output, if any.
fn run(args: &[&str], out_dir: &Path) -> (Option<i32>, Option<Json>) {
    let out = Command::new(BIN).args(args).arg("--out-dir").arg(out_dir).output().unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    let result = stdout.lines().last().and_then(|l| Json::parse(l).ok());
    (out.status.code(), result)
}

fn smoke(workload: &str, trace: &str, out_dir: &Path) -> Json {
    let (code, result) = run(
        &["--smoke", "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace],
        out_dir,
    );
    let result = result.unwrap_or_else(|| panic!("{workload} --trace {trace}: no result line"));
    assert_eq!(code, Some(0), "{workload} --trace {trace}: {result:?}");
    let keys: Vec<&str> = result.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(get(&result, "correct"), &Json::Bool(true));
    assert!(num(get(&result, "attempted")) >= 1.0);
    assert_eq!(num(get(&result, "failed")), 0.0);
    result
}

/// The metrics of `result` are exactly `expected`, each finite and with
/// its unit; returns them by name.
fn check_metrics(result: &Json, expected: &[(String, String)], what: &str) -> Vec<(String, f64)> {
    let metrics = get(result, "metrics").as_obj().unwrap();
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(got, want, "{what}: metric names");
    metrics
        .iter()
        .zip(expected)
        .map(|((name, m), (_, unit))| {
            assert_eq!(get(m, "unit").as_str(), Some(unit.as_str()), "{what}: unit of {name}");
            let value = num(get(m, "value"));
            assert!(value.is_finite(), "{what}: {name} = {value}");
            (name.clone(), value)
        })
        .collect()
}

fn value(metrics: &[(String, f64)], name: &str) -> f64 {
    metrics.iter().find(|(n, _)| n == name).unwrap_or_else(|| panic!("no {name}")).1
}

fn smoke_workload(workload: &str) -> Vec<(String, f64)> {
    let doc = benchmark_json();
    let out_dir = scratch(workload);
    let untraced = smoke(workload, "0", &out_dir);
    let end_to_end = check_metrics(&untraced, &named(&doc, "end_to_end"), workload);
    for (name, v) in &end_to_end {
        assert!(*v > 0.0, "{workload}: end-to-end metric {name} is {v}");
    }
    assert!(value(&end_to_end, "sim_speedup_geomean") > 1.0);
    let report = std::fs::read_to_string(out_dir.join(format!("report-{workload}.json"))).unwrap();
    let report = Json::parse(&report).unwrap();
    assert!(num(get(&report, "host_cores")) >= 1.0);
    assert!(!list(&report, "rows").is_empty());

    let traced = smoke(workload, "1", &out_dir);
    let layers = check_metrics(&traced, &named(&doc, "per_layer"), workload);
    assert!(value(&layers, "bench.ops_traced") >= 1.0);
    assert!((value(&layers, "bench.attributed_share") - 1.0).abs() <= 0.1);
    assert!(value(&layers, "obs.events_recorded") > 0.0);
    let trace = std::fs::read_to_string(out_dir.join(format!("trace-{workload}.json"))).unwrap();
    assert!(trace.contains("\"traceEvents\""));
    layers
}

#[test]
fn compile_suite_smoke() {
    let layers = smoke_workload("compile_suite");
    for name in [
        "ir.parse_us",
        "core.pipeline_us",
        "core.stage.analyze_us",
        "verify.verify_us",
        "ir.clone_us",
    ] {
        assert!(value(&layers, name) > 0.0, "{name}");
    }
    assert!(value(&layers, "core.overhead_share") > 0.0);
    assert_eq!(value(&layers, "core.stages_rolled_back"), 0.0);
    assert_eq!(value(&layers, "verify.certs_rejected"), 0.0);
    assert_eq!(value(&layers, "machine.run_us"), 0.0, "machine is not on this workload's path");
    assert_eq!(value(&layers, "polarisd.decode_us"), 0.0);
}

#[test]
fn compile_large_smoke() {
    let layers = smoke_workload("compile_large");
    assert!(value(&layers, "core.stage.inline_us") > 0.0);
    assert!(value(&layers, "core.nest.certs_emitted") > 0.0);
    assert!(value(&layers, "core.parallel_share") > 0.9);
}

#[test]
fn exec_serial_smoke() {
    let layers = smoke_workload("exec_serial");
    for name in
        ["machine.run_us", "machine.lower_us", "machine.bytecode_instrs", "machine.sim_cycles"]
    {
        assert!(value(&layers, name) > 0.0, "{name}");
    }
    assert!(value(&layers, "machine.vm_over_tree") > 1.0);
    assert_eq!(value(&layers, "core.pipeline_us"), 0.0, "core is not on this workload's path");
}

#[test]
fn exec_threaded_smoke() {
    let layers = smoke_workload("exec_threaded");
    assert!(value(&layers, "machine.threaded_over_serial") > 0.0);
    assert!(value(&layers, "machine.parallel_invocations") > 0.0);
    assert!(value(&layers, "machine.threaded_chunks") > 0.0);
    assert!(value(&layers, "runtime.lrpd_pass") > 0.0);
}

#[test]
fn daemon_mixed_smoke() {
    let layers = smoke_workload("daemon_mixed");
    for name in [
        "polarisd.decode_us",
        "polarisd.encode_us",
        "polarisd.submit_wait_cold_us",
        "polarisd.cache_get_us",
    ] {
        assert!(value(&layers, name) > 0.0, "{name}");
    }
    let hits = value(&layers, "polarisd.cache_hit_share");
    assert!((0.5..1.0).contains(&hits), "hit share {hits}");
    assert_eq!(value(&layers, "polarisd.shed"), 0.0);
    assert!(
        value(&layers, "polarisd.cold_request_ms_p50") * 1e3
            > value(&layers, "polarisd.warm_request_us_p50")
    );
}

#[test]
fn a_wrong_expected_file_fails_the_run() {
    let dir = scratch("wrong-expected");
    let expected = dir.join("expected");
    std::fs::create_dir_all(&expected).unwrap();
    for entry in std::fs::read_dir(manifest_dir().join("expected")).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), expected.join(entry.file_name())).unwrap();
    }
    std::fs::write(expected.join("mmt.out"), "mmt checksum 1.000000E0\n").unwrap();
    for workload in ["compile_suite", "exec_serial", "daemon_mixed"] {
        let (code, result) = run(
            &[
                "--smoke",
                "--workload",
                workload,
                "--seed",
                "3",
                "--trace",
                "0",
                "--expected-dir",
                expected.to_str().unwrap(),
            ],
            &dir,
        );
        let result = result.expect("a failing run still reports");
        assert_eq!(code, Some(1), "{workload}");
        assert_eq!(get(&result, "correct"), &Json::Bool(false), "{workload}");
        let (attempted, failed) = (num(get(&result, "attempted")), num(get(&result, "failed")));
        assert!(
            failed > 0.0 && failed < attempted,
            "{workload}: only MMT's operations fail ({failed}/{attempted})"
        );
    }
}

#[test]
fn a_bad_command_line_exits_without_a_result() {
    let dir = scratch("bad-args");
    for args in [&["--workload", "nope"][..], &["--trace", "2"][..], &[][..]] {
        let (code, result) = run(args, &dir);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(result.is_none(), "{args:?}");
    }
}

#[test]
fn benchmark_json_meets_the_contract() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
    assert_eq!(list(&doc, "paths"), [Json::Str("benchmark".to_string())]);
    let seconds = num(get(&doc, "run_seconds"));
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    assert!(list(&doc, "command").len() <= 32);

    let workloads = list(&doc, "workloads");
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        let why = get(w, "why").as_str().unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }
    let end_to_end = list(&doc, "end_to_end");
    assert!((1..=16).contains(&end_to_end.len()));
    for m in end_to_end {
        let bound = num(get(m, "bound"));
        assert!((0.0..=0.25).contains(&bound));
        assert!(matches!(get(m, "better").as_str(), Some("lower" | "higher")));
    }
    let setup =
        end_to_end.iter().find(|m| get(m, "name").as_str() == Some("setup_s")).expect("setup_s");
    assert_eq!(
        (get(setup, "unit").as_str(), get(setup, "better").as_str()),
        (Some("s"), Some("lower"))
    );
    assert!((1..=128).contains(&list(&doc, "per_layer").len()));

    let mut names: Vec<String> = ["workloads", "end_to_end", "per_layer"]
        .iter()
        .flat_map(|key| {
            list(&doc, key).iter().map(|m| get(m, "name").as_str().unwrap().to_string())
        })
        .collect();
    let count = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), count, "a name is used once");
}

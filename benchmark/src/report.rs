//! The metric tables and the result every workload hands back.
//!
//! `END_TO_END` and `PER_LAYER` mirror `BENCHMARK.json` (a test holds
//! them equal). A layer is a crate of the workspace; a layer that is
//! not on a workload's path reads 0 there.
//!
//! Every named time is at nominal host speed: divided by the slow-down
//! the yardstick saw around it (see `yardstick.rs`). The times as
//! measured go to `out/report-<workload>.json`.

use crate::stats::{geomean, median, percentile, ratio, sorted};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit)` of every end-to-end metric, reported by every workload
/// on an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms_geomean", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_speedup_geomean", "x"),
];

/// `(name, unit)` of every per-layer metric, reported by every workload
/// on a traced run. Times are means per call in the traced phase.
pub const PER_LAYER: &[(&str, &str)] = &[
    // the benchmark's own frame
    ("bench.host_cores", "count"),
    ("bench.ops_traced", "count"),
    ("bench.op_us", "us"),
    ("bench.attributed_share", "ratio"),
    ("bench.yardstick_us", "us"),
    // polaris-ir
    ("ir.parse_us", "us"),
    ("ir.lines_per_s", "1/s"),
    ("ir.print_us", "us"),
    ("ir.validate_us", "us"),
    ("ir.clone_us", "us"),
    ("ir.stmts_out", "count"),
    // polaris-core
    ("core.pipeline_us", "us"),
    ("core.stage.inline_us", "us"),
    ("core.stage.constprop_us", "us"),
    ("core.stage.normalize_us", "us"),
    ("core.stage.induction_us", "us"),
    ("core.stage.constprop-fold_us", "us"),
    ("core.stage.dce_us", "us"),
    ("core.stage.reduction_us", "us"),
    ("core.stage.idxprop_us", "us"),
    ("core.stage.interchange_us", "us"),
    ("core.stage.tile_us", "us"),
    ("core.stage.fuse_us", "us"),
    ("core.stage.analyze_us", "us"),
    ("core.overhead_us", "us"),
    ("core.overhead_share", "ratio"),
    ("core.loops_total", "count"),
    ("core.loops_parallel", "count"),
    ("core.loops_speculative", "count"),
    ("core.parallel_share", "ratio"),
    ("core.dd.range_run", "count"),
    ("core.dd.range_proved_share", "ratio"),
    ("core.dd.banerjee_vectors", "count"),
    ("core.nest.certs_emitted", "count"),
    ("core.invariant_checks", "count"),
    ("core.stages_rolled_back", "count"),
    // polaris-symbolic
    ("symbolic.range_test_trfd_us", "us"),
    ("symbolic.range_test_ocean_us", "us"),
    // polaris-verify
    ("verify.verify_us", "us"),
    ("verify.share_of_compile", "ratio"),
    ("verify.race_claims", "count"),
    ("verify.race_clean_share", "ratio"),
    ("verify.certs_rejected", "count"),
    // polaris-machine
    ("machine.run_us", "us"),
    ("machine.lower_us", "us"),
    ("machine.bytecode_compile_us", "us"),
    ("machine.bytecode_instrs", "instrs"),
    ("machine.exec_fallbacks", "instrs"),
    ("machine.sim_cycles", "cycles"),
    ("machine.ns_per_sim_cycle", "ns"),
    ("machine.loop_invocations", "count"),
    ("machine.parallel_invocations", "count"),
    ("machine.sim8_run_us", "us"),
    ("machine.vm_over_tree", "x"),
    ("machine.threaded_over_serial", "x"),
    ("machine.threaded_overhead_us_per_invocation", "us"),
    ("machine.threaded_chunks", "count"),
    ("machine.threaded_merge_bytes", "bytes"),
    ("machine.sched.dynamic_over_static", "x"),
    ("machine.sched.stealing_over_static", "x"),
    // polaris-runtime
    ("runtime.lrpd_pass", "count"),
    ("runtime.lrpd_fail", "count"),
    ("runtime.lrpd_pass_share", "ratio"),
    // polarisd
    ("polarisd.warm_request_us_p50", "us"),
    ("polarisd.cold_request_ms_p50", "ms"),
    ("polarisd.cold_request_ms_p95", "ms"),
    ("polarisd.decode_us", "us"),
    ("polarisd.encode_us", "us"),
    ("polarisd.submit_wait_warm_us", "us"),
    ("polarisd.submit_wait_cold_us", "us"),
    ("polarisd.service_overhead_us", "us"),
    ("polarisd.cache_get_us", "us"),
    ("polarisd.cache_insert_us", "us"),
    ("polarisd.cache_hit_share", "ratio"),
    ("polarisd.cache_entries_end", "count"),
    ("polarisd.rss_kb_per_entry", "kB"),
    ("polarisd.shed", "count"),
    ("polarisd.retries", "count"),
    ("polarisd.deadline_cancels", "count"),
    ("polarisd.respawns", "count"),
    // polaris-obs
    ("obs.compile_trace_overhead_share", "ratio"),
    ("obs.exec_trace_overhead_share", "ratio"),
    ("obs.events_recorded", "count"),
    ("obs.events_dropped", "count"),
];

/// Named metric values of one run, in table order.
#[derive(Debug, Clone)]
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Every metric of `table`, at 0 until [`Metrics::set`].
    pub fn zeroed(table: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics { table, values: table.iter().map(|(n, _)| (*n, 0.0)).collect() }
    }

    /// Panics on a name that is not in the table: that is a typo in
    /// the benchmark, not a run-time condition.
    pub fn set(&mut self, name: &str, value: f64) {
        *self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the table")) = value;
    }

    pub fn add(&mut self, name: &str, value: f64) {
        self.set(name, self.get(name) + value);
    }

    pub fn get(&self, name: &str) -> f64 {
        *self.values.get(name).unwrap_or_else(|| panic!("metric `{name}` is not in the table"))
    }

    /// Bring every time and rate from a host that was `slowdown` times
    /// slower than nominal to nominal speed. `bench.yardstick_us` stays:
    /// it is the measurement of that slow-down.
    pub fn scale_to_nominal_speed(&mut self, slowdown: f64) {
        for (name, unit) in self.table {
            let value = self.values.get_mut(name).expect("every table entry has a value");
            match *unit {
                "s" | "ms" | "us" | "ns" if *name != "bench.yardstick_us" => *value /= slowdown,
                "1/s" => *value *= slowdown,
                _ => {}
            }
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.table.iter().map(|(n, u)| (*n, *u, self.values[n]))
    }
}

/// Timing samples of one operation class: one input program.
#[derive(Debug, Clone)]
pub struct Class {
    pub name: String,
    /// Classes of one group are averaged first, then the groups, so that
    /// a group with few classes counts as much as one with many: the
    /// daemon's 26 `warm` kernels beside its 256 `cold` programs. The
    /// other workloads have one group.
    pub group: &'static str,
    /// Operation times of the untraced phase, at nominal host speed.
    pub samples_ms: Vec<f64>,
    /// The same operations' times as measured.
    pub raw_ms: Vec<f64>,
    /// Operation times of the traced phase, at nominal host speed.
    pub traced_ms: Vec<f64>,
}

impl Class {
    pub fn new(name: &str, group: &'static str) -> Class {
        Class {
            name: name.to_string(),
            group,
            samples_ms: Vec::new(),
            raw_ms: Vec::new(),
            traced_ms: Vec::new(),
        }
    }

    /// File an untraced operation that took `ms` while the host was
    /// `slowdown` times slower than nominal.
    pub fn push(&mut self, ms: f64, slowdown: f64) {
        self.raw_ms.push(ms);
        self.samples_ms.push(ms / slowdown);
    }
}

/// Geometric mean over groups of the geometric mean over the group's
/// classes of each class's median sample, as `pick` selects them.
fn median_geomean(classes: &[Class], pick: impl Fn(&Class) -> &[f64]) -> f64 {
    let mut groups: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for c in classes.iter().filter(|c| !pick(c).is_empty()) {
        groups.entry(c.group).or_default().push(median(pick(c)));
    }
    geomean(groups.into_values().map(geomean))
}

/// Tracing overhead: the traced phase's [`median_geomean`] over the
/// untraced phase's, minus one.
pub fn trace_overhead_share(classes: &[Class]) -> f64 {
    let untraced = median_geomean(classes, |c| &c.samples_ms);
    ratio(median_geomean(classes, |c| &c.traced_ms) - untraced, untraced)
}

/// Operations attempted and failed, with the first few reasons.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// For standard error; the result line carries only the counts.
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one operation on `name`; `defect` says why it failed, if it did.
    pub fn note(&mut self, name: &str, defect: Option<String>) {
        self.attempted += 1;
        if let Some(why) = defect {
            self.fail(format!("{name}: {why}"));
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }

    /// The attribution self-check of a traced run: the layer spans named
    /// in `parts` must sum to within a tenth of the operation span, or
    /// the run fails.
    pub fn check_attribution(&mut self, layers: &Metrics, parts: &str) {
        let share = layers.get("bench.attributed_share");
        if !(0.9..=1.1).contains(&share) {
            self.fail(format!("attribution: {parts} is {share:.3} of the operation"));
        }
    }
}

/// What one run of one workload produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
    /// Per-class detail, written to `out/report-<workload>.json`.
    pub classes: Vec<Class>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    /// The result line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.tally.attempted,
            self.tally.failed
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ =
                write!(s, "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(value));
        }
        s.push_str("}}");
        s
    }

    /// Per-class rows (sample count, quartiles as measured, median at
    /// nominal host speed), the operation time both ways, and the
    /// host's core count: detail for a reader, not named metrics.
    pub fn detail_json(&self, workload: &str, seed: u64) -> String {
        let raw = median_geomean(&self.classes, |c| &c.raw_ms);
        let nominal = median_geomean(&self.classes, |c| &c.samples_ms);
        let mut s = format!(
            "{{\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n  \"host_cores\": {},\n  \
             \"raw_op_ms_geomean\": {},\n  \"nominal_op_ms_geomean\": {},\n  \"host_slowdown\": {},\n  \"rows\": [\n",
            host_cores(),
            json_num(raw),
            json_num(nominal),
            json_num(ratio(raw, nominal)),
        );
        for (i, c) in self.classes.iter().enumerate() {
            let v = sorted(c.raw_ms.clone());
            let _ = write!(
                s,
                "    {{\"class\": \"{}\", \"group\": \"{}\", \"samples\": {}, \"raw_p25_ms\": {}, \"raw_p50_ms\": {}, \"raw_p75_ms\": {}, \"nominal_p50_ms\": {}}}",
                c.name,
                c.group,
                v.len(),
                json_num(percentile(&v, 25.0)),
                json_num(percentile(&v, 50.0)),
                json_num(percentile(&v, 75.0)),
                json_num(median(&c.samples_ms))
            );
            s.push_str(if i + 1 == self.classes.len() { "\n" } else { ",\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// JSON has no NaN or infinity; a metric that is one is a bug that the
/// driver should see as a malformed result, so it is written as `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") / 1024.0
}

/// Current resident set of this process (`VmRSS`), in kB.
pub fn rss_kb() -> f64 {
    proc_status_kb("VmRSS:")
}

fn proc_status_kb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Operations per second of one client: one round over the classes,
/// each taking its median time.
pub fn round_ops_per_s(classes: &[Class]) -> f64 {
    let typical: Vec<f64> = classes
        .iter()
        .filter(|c| !c.samples_ms.is_empty())
        .map(|c| median(&c.samples_ms))
        .collect();
    ratio(typical.len() as f64, typical.iter().sum::<f64>() / 1e3)
}

/// The end-to-end metrics every workload reports. `ops_per_s` and
/// `setup_s` are at nominal host speed, as the classes' samples are;
/// `sim_speedup_geomean` is the geometric mean of [`crate::suite::sim_speedup`]
/// over the programs that set-up restructured itself.
pub fn end_to_end(
    classes: &[Class],
    ops_per_s: f64,
    setup_s: f64,
    sim_speedup_geomean: f64,
) -> Metrics {
    let mut m = Metrics::zeroed(END_TO_END);
    m.set("setup_s", setup_s);
    m.set("op_ms_geomean", median_geomean(classes, |c| &c.samples_ms));
    m.set("ops_per_s", ops_per_s);
    m.set("peak_rss_mb", peak_rss_mb());
    m.set("sim_speedup_geomean", sim_speedup_geomean);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A class whose samples were taken on a host twice slower than nominal.
    fn class(name: &str, group: &'static str, samples_ms: &[f64]) -> Class {
        let mut c = Class::new(name, group);
        for ms in samples_ms {
            c.push(2.0 * ms, 2.0);
        }
        c
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let classes =
            vec![class("A", "program", &[3.0, 1.0, 0.5]), class("B", "program", &[4.0, 4.0])];
        let out = Outcome {
            tally: Tally { attempted: 5, ..Tally::default() },
            metrics: end_to_end(&classes, round_ops_per_s(&classes), 0.25, 4.5),
            classes,
        };
        let line = out.result_line();
        let v = polaris::daemon::proto::Json::parse(&line).expect("result line is JSON");
        let keys: Vec<&str> = v.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        // one round at median speed is 1 ms + 4 ms for 2 operations
        assert!(line.contains("\"ops_per_s\": {\"value\": 400, \"unit\": \"1/s\"}"), "{line}");
        assert_eq!(out.metrics.get("op_ms_geomean"), 2.0);
        let detail = out.detail_json("w", 1);
        assert!(detail.contains("\"raw_op_ms_geomean\": 4,"), "{detail}");
        assert!(detail.contains("\"host_slowdown\": 2,"), "{detail}");
        assert!(
            detail.contains(
                "\"class\": \"B\", \"group\": \"program\", \"samples\": 2, \"raw_p25_ms\": 8, \"raw_p50_ms\": 8, \"raw_p75_ms\": 8, \"nominal_p50_ms\": 4}"
            ),
            "{detail}"
        );
    }

    #[test]
    fn groups_count_equally_whatever_their_size() {
        let classes = vec![
            class("K", "warm", &[1.0, 5.0, 0.5]),
            class("c1", "cold", &[16.0]),
            class("c2", "cold", &[12.0, 20.0]),
            class("c3", "cold", &[]),
        ];
        // geomean(1, geomean(16, 16)) = 4; the empty class is skipped
        assert_eq!(median_geomean(&classes, |c| &c.samples_ms), 4.0);
        let mut traced = classes.clone();
        for c in &mut traced {
            c.traced_ms = c.samples_ms.iter().map(|ms| ms * 1.5).collect();
        }
        assert!((trace_overhead_share(&traced) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn times_and_rates_scale_to_nominal_speed_and_counts_do_not() {
        let mut m = Metrics::zeroed(PER_LAYER);
        for (name, value) in [
            ("ir.parse_us", 30.0),
            ("polarisd.cold_request_ms_p50", 3.0),
            ("ir.lines_per_s", 100.0),
            ("core.loops_total", 7.0),
            ("core.overhead_share", 0.5),
            ("bench.yardstick_us", 1500.0),
        ] {
            m.set(name, value);
        }
        m.scale_to_nominal_speed(1.5);
        assert_eq!(m.get("ir.parse_us"), 20.0);
        assert_eq!(m.get("polarisd.cold_request_ms_p50"), 2.0);
        assert_eq!(m.get("ir.lines_per_s"), 150.0);
        assert_eq!(m.get("core.loops_total"), 7.0);
        assert_eq!(m.get("core.overhead_share"), 0.5);
        assert_eq!(m.get("bench.yardstick_us"), 1500.0);
    }

    #[test]
    fn tables_have_unique_contract_shaped_names() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
            assert!(unit.len() <= 16, "{unit}");
            assert!(
                unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn a_run_is_correct_if_it_attempted_something_and_nothing_failed() {
        let mut out = Outcome {
            tally: Tally::default(),
            metrics: Metrics::zeroed(PER_LAYER),
            classes: vec![],
        };
        assert!(!out.correct(), "no operation");
        out.tally.note("A", None);
        assert!(out.correct());
        out.metrics.set("bench.attributed_share", 0.95);
        out.tally.check_attribution(&out.metrics, "a + b");
        assert!(out.correct());
        out.metrics.set("bench.attributed_share", 0.8);
        out.tally.check_attribution(&out.metrics, "a + b");
        out.tally.note("B", Some("wrong output".to_string()));
        assert!(!out.correct());
        assert_eq!((out.tally.attempted, out.tally.failed), (2, 2));
        assert_eq!(
            out.tally.failures,
            ["attribution: a + b is 0.800 of the operation", "B: wrong output"]
        );
    }
}

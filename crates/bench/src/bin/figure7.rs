//! Regenerate Figure 7: 8-processor speedup, Polaris vs the PFA-like
//! baseline ("VFA"), for the sixteen evaluation codes.
//!
//! The paper's claims to reproduce (shape, not absolute values):
//! * Polaris delivers substantially better speedups on about half the
//!   codes (the privatization / generalized-induction / range-test /
//!   run-time-test group),
//! * a few programs sit near 1 for both compilers,
//! * PFA edges ahead on a small number of codes thanks to its more
//!   aggressive back end — and that same back end hurts it on the
//!   conditional-heavy APPSP and TOMCATV despite equal parallelism.
//!
//! Every number is a ratio of simulated cycle counts, so the output is
//! identical on every host; wall-clock measurements live in `benchmark/`.
//!
//! ```text
//! figure7 [--json [PATH]] [--only NAME,NAME,...]
//!   --json [PATH]  also write the figure as a JSON document
//!                  (default PATH: BENCH_figure7.json)
//!   --only LIST    restrict to a comma-separated subset of kernels
//! ```

use polaris_bench::{bar, speedups, SpeedupRow};
use polaris_obs::json::Json;
use std::process::ExitCode;

const SCHEMA: &str = "polaris-bench/figure7/v9";
const PROCS: usize = 8;

fn main() -> ExitCode {
    let mut json_path: Option<String> = None;
    let mut only: Option<Vec<String>> = None;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => {
                let path = match args.peek() {
                    Some(p) if !p.starts_with("--") => args.next().unwrap(),
                    _ => "BENCH_figure7.json".to_string(),
                };
                json_path = Some(path);
            }
            "--only" => match args.next() {
                Some(list) => {
                    only = Some(list.split(',').map(|s| s.trim().to_uppercase()).collect())
                }
                None => {
                    eprintln!("figure7: --only needs a comma-separated kernel list");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("figure7: unknown option `{other}`");
                eprintln!("usage: figure7 [--json [PATH]] [--only NAME,NAME,...]");
                return ExitCode::FAILURE;
            }
        }
    }

    let benches: Vec<_> = polaris_benchmarks::all()
        .into_iter()
        .filter(|b| only.as_ref().is_none_or(|names| names.iter().any(|n| n == b.name)))
        .collect();
    if benches.is_empty() {
        eprintln!("figure7: --only matched no kernels");
        return ExitCode::FAILURE;
    }

    println!("Figure 7: Speedup on {PROCS} processors — Polaris vs VFA (PFA-like baseline)");
    println!();
    println!(
        "{:<9} {:>8} {:>8}   0        2        4        6        8",
        "Program", "Polaris", "VFA"
    );
    println!("{:-<74}", "");
    let rows: Vec<SpeedupRow> = benches.iter().map(|b| speedups(b, PROCS)).collect();
    for row in &rows {
        println!(
            "{:<9} {:>7.2}x {:>7.2}x   P|{}",
            row.name,
            row.polaris,
            row.vfa,
            bar(row.polaris, 8.0)
        );
        println!("{:<9} {:>8} {:>8}   V|{}", "", "", "", bar(row.vfa, 8.0));
    }
    println!("{:-<74}", "");
    let geo = |f: fn(&SpeedupRow) -> f64| -> f64 {
        (rows.iter().map(|r| f(r).ln()).sum::<f64>() / rows.len() as f64).exp()
    };
    let geo_polaris = geo(|r| r.polaris);
    let geo_vfa = geo(|r| r.vfa);
    let ahead_polaris = rows.iter().filter(|r| r.polaris > r.vfa * 1.02).count();
    let ahead_vfa = rows.iter().filter(|r| r.vfa > r.polaris * 1.02).count();
    println!("geometric mean: Polaris {geo_polaris:.2}x   VFA {geo_vfa:.2}x");
    println!(
        "Polaris clearly ahead on {ahead_polaris} of {} codes; baseline ahead on {ahead_vfa} \
         (paper: PFA ahead on 2).",
        rows.len()
    );

    if let Some(path) = json_path {
        let doc = render_json(&rows, [geo_polaris, geo_vfa], [ahead_polaris, ahead_vfa]);
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("figure7: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    ExitCode::SUCCESS
}

/// One line per kernel, stable key order, six-decimal ratios: the
/// committed golden diffs line by line when a kernel's speedup moves.
fn render_json(rows: &[SpeedupRow], geo: [f64; 2], ahead: [usize; 2]) -> String {
    let row = |m: Vec<(&str, Json)>| {
        Json::Inline(Box::new(Json::Obj(m.into_iter().map(|(k, v)| (k.into(), v)).collect())))
    };
    let int = |n: usize| Json::Int(n as u64);
    let kernels = rows.iter().map(|r| {
        row(vec![
            ("name", Json::Str(r.name.into())),
            ("serial_cycles", Json::Int(r.serial_cycles)),
            ("sim_speedup_polaris", Json::Num(r.polaris)),
            ("sim_speedup_vfa", Json::Num(r.vfa)),
        ])
    });
    let doc = Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("procs".into(), int(PROCS)),
        ("kernels".into(), Json::Arr(kernels.collect())),
        ("geomean".into(), row(vec![("sim_polaris", Json::Num(geo[0])), ("sim_vfa", Json::Num(geo[1]))])),
        ("ahead".into(), row(vec![("polaris", int(ahead[0])), ("vfa", int(ahead[1])), ("of", int(rows.len()))])),
    ]);
    format!("{doc}\n")
}

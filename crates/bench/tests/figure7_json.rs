//! `figure7 --json` is the paper's Figure 7 as data: per kernel the
//! Polaris and VFA simulated speedups, the two geomeans and the
//! "ahead on N of 16" count. Every number derives from simulated cycle
//! counts, so the document is the same on every host and is pinned byte
//! for byte by `tests/golden/figure7.json` — the per-kernel gate on
//! restructurer quality.
//!
//! Regeneration: `UPDATE_GOLDEN=1 cargo test -p polaris-bench --test
//! figure7_json` rewrites the golden; commit the diff if (and only if)
//! the change is intentional.

use polaris_obs::json::Json;
use std::path::PathBuf;
use std::process::Command;

fn figure7_json(file: &str) -> String {
    let dir = std::env::temp_dir().join("figure7_json_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(file);
    let _ = std::fs::remove_file(&path);
    let out = Command::new(env!("CARGO_BIN_EXE_figure7"))
        .args(["--json", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "figure7 failed:\n{}", String::from_utf8_lossy(&out.stderr));
    std::fs::read_to_string(&path).unwrap()
}

#[test]
fn figure7_json_is_deterministic_and_matches_the_golden() {
    let got = figure7_json("first.json");
    assert_eq!(got, figure7_json("second.json"), "two runs of figure7 --json differ");

    let doc = Json::parse(&got).unwrap_or_else(|e| panic!("malformed JSON: {e}\n{got}"));
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("polaris-bench/figure7/v9"));

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/figure7.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e})", path.display()));
    assert!(
        got == want,
        "figure7 --json drifted from its golden (UPDATE_GOLDEN=1 regenerates if intentional)\n\
         --- want ---\n{want}\n--- got ---\n{got}"
    );
}

#[test]
fn figure7_rejects_unknown_kernels_and_flags() {
    let out =
        Command::new(env!("CARGO_BIN_EXE_figure7")).args(["--only", "NOSUCH"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("matched no kernels"));

    let out = Command::new(env!("CARGO_BIN_EXE_figure7")).args(["--bogus"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option"));
}

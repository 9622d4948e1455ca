//! The input programs and their reference outputs.
//!
//! A reference never comes from the code under test: it is the output
//! of the *unrestructured* source under the serial tree-walking
//! interpreter, which shares neither the pipeline nor the VM. For the
//! 26 kernels it is committed under `expected/`; for generated programs
//! it is computed in set-up.

use polaris::machine::exec::outputs_match;
use polaris::{Engine, MachineConfig};
use std::path::Path;

/// Relative tolerance on printed REALs: a restructured reduction may
/// associate differently from the serial reference.
pub const TOL: f64 = 1e-6;

/// Step budget for reference runs of generated programs, so a generator
/// bug reports an error instead of hanging the benchmark.
const REFERENCE_FUEL: u64 = 50_000_000;

/// One input program with the output it must produce.
#[derive(Debug, Clone)]
pub struct Input {
    pub name: String,
    pub source: String,
    pub reference: Vec<String>,
}

/// The 26 kernel sources: the 16 Table-1 codes, TRACK, the six
/// irregular-subscript kernels, SPMVT and the two locality kernels.
pub fn kernel_sources() -> Vec<(String, &'static str)> {
    use polaris::benchmarks as b;
    b::all()
        .into_iter()
        .chain([b::track()])
        .chain(b::irregular().into_iter().map(|(k, _)| k))
        .chain([b::skewed()])
        .chain(b::locality().into_iter().map(|(k, _)| k))
        .map(|k| (k.name.to_string(), k.source))
        .collect()
}

/// The kernels with their committed references from `expected_dir`.
pub fn kernels(expected_dir: &Path) -> Result<Vec<Input>, String> {
    kernel_sources()
        .into_iter()
        .map(|(name, source)| {
            let path = expected_dir.join(format!("{}.out", name.to_lowercase()));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            Ok(Input {
                name,
                source: source.to_string(),
                reference: text.lines().map(str::to_string).collect(),
            })
        })
        .collect()
}

/// Output of the unrestructured `source` under the serial tree-walker.
/// `CALL`s are inlined first, as the machine executes call-free code.
pub fn reference_output(source: &str) -> Result<Vec<String>, String> {
    let mut program = polaris::ir::parse(source).map_err(|e| format!("parse: {e}"))?;
    polaris::core::inline::inline_all(&mut program).map_err(|e| format!("inline: {e}"))?;
    let cfg = MachineConfig::serial().with_engine(Engine::TreeWalk).with_fuel(REFERENCE_FUEL);
    polaris::machine::run(&program, &cfg)
        .map(|r| r.output)
        .map_err(|e| format!("reference run: {e}"))
}

/// Figure 7's quantity for one program: simulated cycles of the
/// unrestructured `source` on the serial machine over `parallel_cycles`,
/// those of the restructured program on the simulated 8-processor
/// machine. Simulated cycles repeat exactly.
pub fn sim_speedup(source: &str, parallel_cycles: u64) -> Result<f64, String> {
    let mut program = polaris::ir::parse(source).map_err(|e| format!("parse: {e}"))?;
    polaris::core::inline::inline_all(&mut program).map_err(|e| format!("inline: {e}"))?;
    let serial = polaris::machine::run_serial(&program).map_err(|e| format!("serial run: {e}"))?;
    Ok(serial.cycles as f64 / parallel_cycles as f64)
}

/// Whether an executed output is the reference, to within [`TOL`].
pub fn matches_reference(output: &[String], reference: &[String]) -> bool {
    outputs_match(reference, output, TOL)
}

/// Write `expected/<kernel>.out` for every kernel (maintenance: run once
/// when a kernel is added or its source changes).
pub fn write_expected(expected_dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(expected_dir).map_err(|e| e.to_string())?;
    for (name, source) in kernel_sources() {
        let out = reference_output(source).map_err(|e| format!("{name}: {e}"))?;
        let path = expected_dir.join(format!("{}.out", name.to_lowercase()));
        std::fs::write(&path, out.join("\n") + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_suite_is_the_26_kernels_under_unique_names() {
        let names: std::collections::BTreeSet<String> =
            kernel_sources().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names.len(), 26);
        assert!(names.contains("MMT") && names.contains("STENCIL2D") && names.contains("TRACK"));
    }

    #[test]
    fn committed_references_are_what_the_tree_walker_prints() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected");
        for input in kernels(&dir).expect("expected/ is complete") {
            assert_eq!(
                reference_output(&input.source).unwrap(),
                input.reference,
                "{}: expected/{}.out is stale",
                input.name,
                input.name.to_lowercase()
            );
        }
    }
}

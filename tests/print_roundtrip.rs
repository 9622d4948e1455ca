//! The printer writes what the parser reads: print → parse → print is
//! byte-identical on the annotated output of every kernel and of the
//! generated corpus, under both pass configurations. Every directive and
//! clause the restructurer emits therefore reads back as it was printed.

mod common;

use polaris::fuzz::generate_program;
use polaris::ir::printer::print_program;
use polaris::{parallelize, PassOptions};

/// Compile each `(name, source)` under Polaris and VFA, and check that
/// the annotated output parses back and prints byte for byte the same.
/// Every program that does not is reported, the first in full. Returns
/// the number of directive lines read back.
fn reprints_identically(programs: impl IntoIterator<Item = (String, String)>) -> usize {
    let (mut bad, mut first, mut directives) = (Vec::new(), String::new(), 0);
    for (name, source) in programs {
        for opts in [PassOptions::polaris(), PassOptions::vfa()] {
            let text = parallelize(&source, &opts)
                .unwrap_or_else(|e| panic!("{name}: compile: {e}"))
                .annotated_source;
            let again = polaris::ir::parse(&text)
                .map(|p| print_program(&p))
                .unwrap_or_else(|e| panic!("{name}: the annotated output does not parse: {e}\n{text}"));
            directives += text.lines().filter(|l| l.starts_with("!$")).count();
            if again != text {
                if bad.is_empty() {
                    first = format!("{name}: printed\n{text}\nreprinted\n{again}");
                }
                bad.push(name.clone());
            }
        }
    }
    assert!(bad.is_empty(), "{} reprint differently: {bad:?}\n{first}", bad.len());
    directives
}

fn seeds(range: std::ops::Range<u64>) -> impl Iterator<Item = (String, String)> {
    range.map(|seed| (format!("seed {seed}"), generate_program(seed)))
}

#[test]
fn the_kernels_annotated_output_reprints_identically() {
    let kernels = common::kernels().into_iter().map(|k| (k.name.to_string(), k.source.to_string()));
    assert!(reprints_identically(kernels) > 0);
}

#[test]
fn generated_programs_reprint_identically_seeds_0_256() {
    assert!(reprints_identically(seeds(0..256)) > 0);
}

#[test]
#[ignore = "wide corpus; run by CI in release"]
fn wide_corpus_reprints_identically_seeds_0_8192() {
    reprints_identically(seeds(0..8192));
}

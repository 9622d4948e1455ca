//! `privatize::live_after` and the dead-store pass built on its rule,
//! against the implementation both replaced.
//!
//! Until PR 22 a liveness query walked the unit and asked
//! `rangeprop::contains` at every compound statement it passed, and
//! `dce` asked one query per scalar assignment. Both now number the
//! unit's statements in one walk. The old query is kept here, verbatim,
//! as the oracle: over the 26 kernels and fuzz seeds `0..256`, at three
//! points of the pipeline (parsed, as `dce` finds it, restructured),
//! every statement × every assigned name must get the old answer, and
//! `dce` must delete exactly what a fixpoint over the old query deletes.

use polaris::core::{constprop, dce, induction, inline, normalize, privatize, rangeprop};
use polaris::fuzz::generate_program;
use polaris::ir::expr::Expr;
use polaris::ir::stmt::{for_each_stmt_expr, Stmt, StmtId, StmtKind, StmtList};
use polaris::ir::{Program, ProgramUnit};
use polaris::PassOptions;

/// `privatize::live_after` as of PR 21.
fn live_after_reference(unit: &ProgramUnit, loop_id: StmtId, name: &str) -> bool {
    if let Some(sym) = unit.symbols.get(name) {
        if sym.is_arg || sym.common.is_some() {
            return true;
        }
    }
    let mut seen_loop = false;
    let mut live = false;
    fn reads_name(s: &Stmt, name: &str) -> bool {
        let mut found = false;
        for_each_stmt_expr(s, &mut |e| match e {
            Expr::Var(n) | Expr::Index { array: n, .. } if n == name => found = true,
            _ => {}
        });
        found
    }
    fn walk(
        list: &StmtList,
        loop_id: StmtId,
        name: &str,
        seen: &mut bool,
        live: &mut bool,
        inside_enclosing_loop: bool,
    ) {
        for s in list {
            if s.id == loop_id {
                *seen = true;
                continue;
            }
            let relevant = *seen || inside_enclosing_loop;
            match &s.kind {
                StmtKind::Do(d) => {
                    if rangeprop::contains(&d.body, loop_id) {
                        let bounds = [Some(&d.init), Some(&d.limit), d.step.as_ref()];
                        if relevant && bounds.into_iter().flatten().any(|e| e.references(name)) {
                            *live = true;
                        }
                        walk(&d.body, loop_id, name, seen, live, true);
                    } else if relevant && reads_name(s, name) {
                        *live = true;
                    } else if relevant {
                        walk(&d.body, loop_id, name, seen, live, inside_enclosing_loop);
                    }
                }
                StmtKind::IfBlock { arms, else_body } => {
                    let contains = arms.iter().any(|a| rangeprop::contains(&a.body, loop_id))
                        || rangeprop::contains(else_body, loop_id);
                    if contains {
                        if relevant && arms.iter().any(|arm| arm.cond.references(name)) {
                            *live = true;
                        }
                        for arm in arms {
                            walk(&arm.body, loop_id, name, seen, live, inside_enclosing_loop);
                        }
                        walk(else_body, loop_id, name, seen, live, inside_enclosing_loop);
                    } else if relevant && reads_name(s, name) {
                        *live = true;
                    }
                }
                _ => {
                    if relevant && reads_name(s, name) {
                        *live = true;
                    }
                }
            }
        }
    }
    walk(&unit.body, loop_id, name, &mut seen_loop, &mut live, false);
    live
}

/// `dce::run_unit` as of PR 21, over `live`.
fn dce_reference(unit: &mut ProgramUnit, live: fn(&ProgramUnit, StmtId, &str) -> bool) -> usize {
    fn remove(list: &mut StmtList, victims: &[StmtId]) {
        list.0.retain(|s| !victims.contains(&s.id));
        for s in list.0.iter_mut() {
            match &mut s.kind {
                StmtKind::Do(d) => remove(&mut d.body, victims),
                StmtKind::IfBlock { arms, else_body } => {
                    arms.iter_mut().for_each(|arm| remove(&mut arm.body, victims));
                    remove(else_body, victims);
                }
                _ => {}
            }
        }
        list.0.retain(|s| match &s.kind {
            StmtKind::IfBlock { arms, else_body } => {
                !(arms.iter().all(|a| a.body.is_empty()) && else_body.is_empty())
            }
            _ => true,
        });
    }
    let mut removed = 0;
    loop {
        let mut victims = Vec::new();
        unit.body.walk(&mut |s| {
            if let StmtKind::Assign { lhs, .. } = &s.kind {
                if lhs.subs().is_empty() && !live(unit, s.id, lhs.name()) {
                    victims.push(s.id);
                }
            }
        });
        if victims.is_empty() {
            return removed;
        }
        removed += victims.len();
        remove(&mut unit.body, &victims);
    }
}

/// Every source: the 26 kernels, then the fuzz corpus.
fn sources() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/benchmarks/codes");
    let mut out: Vec<(String, String)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "f"))
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&path).unwrap())
        })
        .collect();
    out.sort();
    assert_eq!(out.len(), 26);
    out.extend((0..256).map(|seed| (format!("seed {seed}"), generate_program(seed))));
    out
}

/// `src` parsed, as the `dce` stage finds it, and fully restructured.
fn snapshots(src: &str) -> [(&'static str, Program); 3] {
    let parsed = polaris::ir::parse(src).unwrap();
    let mut before_dce = parsed.clone();
    let opts = PassOptions::polaris();
    inline::inline_all(&mut before_dce).unwrap();
    constprop::run(&mut before_dce);
    normalize::run(&mut before_dce);
    induction::run_with(&mut before_dce, opts.induction);
    constprop::run(&mut before_dce);
    let restructured = polaris::parallelize(src, &opts).unwrap().program;
    [("parsed", parsed), ("before dce", before_dce), ("restructured", restructured)]
}

#[test]
fn every_liveness_query_gets_the_answer_the_old_walk_gave() {
    let mut queries = 0usize;
    let mut live = 0usize;
    for (name, src) in sources() {
        for (at, program) in snapshots(&src) {
            for unit in &program.units {
                let names = rangeprop::assigned_vars(&unit.body);
                unit.body.walk(&mut |s| {
                    for var in &names {
                        let expected = live_after_reference(unit, s.id, var);
                        assert_eq!(
                            privatize::live_after(unit, s.id, var),
                            expected,
                            "{name} ({at}), unit {}: `{var}` after {}",
                            unit.name,
                            s.id
                        );
                        queries += 1;
                        live += usize::from(expected);
                    }
                });
            }
        }
    }
    // Neither answer is the trivial one.
    assert!(live * 10 > queries && live * 10 < queries * 9, "{live} of {queries}");
}

#[test]
fn dce_deletes_what_a_fixpoint_over_the_old_query_deletes() {
    let mut removed = 0usize;
    for (name, src) in sources() {
        for (at, program) in snapshots(&src) {
            for unit in &program.units {
                let mut expected = unit.clone();
                let expected_removed = dce_reference(&mut expected, live_after_reference);
                let mut per_query = unit.clone();
                dce_reference(&mut per_query, privatize::live_after);
                let mut got = unit.clone();
                let stats = dce::run_unit(&mut got);
                assert_eq!(per_query, expected, "{name} ({at}), unit {}: live_after", unit.name);
                assert_eq!(got, expected, "{name} ({at}), unit {}: dce", unit.name);
                assert_eq!(stats.removed, expected_removed, "{name} ({at}), unit {}", unit.name);
                removed += expected_removed;
            }
        }
    }
    assert!(removed > 100, "the corpus has too few dead stores to tell: {removed}");
}

//! The per-loop dependence driver: combines the dependence tests (§3.3),
//! privatization (§3.4), reduction validation (§3.2) and the run-time
//! test fallback (§3.5) into a parallel / speculative / serial decision
//! for every `DO` loop, and annotates the IR with the result.

use crate::ddtest::{affine, banerjee, gcd, range_test, DdStats};
use crate::iterview::{IterView, Ref};
use crate::privatize;
use crate::rangeprop;
use crate::reduction;
use crate::PassOptions;
use polaris_ir::stmt::{DoLoop, LoopId, ParallelInfo, SpecInfo, StmtId, StmtKind, StmtList};
use polaris_ir::visit::find_serializing_stmt;
use polaris_ir::ProgramUnit;
use polaris_symbolic::poly::{DivPolicy, Poly};
use polaris_symbolic::RangeEnv;
use std::collections::{BTreeMap, BTreeSet};

/// Outcome for one loop (also used by the evaluation harness).
#[derive(Debug, Clone, PartialEq)]
pub struct LoopReport {
    pub label: String,
    /// Provenance id of the loop (see [`polaris_ir::stmt::LoopId`]); the
    /// key the run-time dependence oracle joins observations on.
    pub loop_id: LoopId,
    pub unit: String,
    /// Proven parallel at compile time.
    pub parallel: bool,
    /// Chosen for run-time (speculative) parallelization.
    pub speculative: bool,
    /// Reason the loop stayed serial.
    pub serial_reason: Option<String>,
    pub private: Vec<String>,
    pub(crate) copy_out: Vec<String>,
    pub reductions: Vec<String>,
    /// Proven index-array facts visible to this loop's subscripted
    /// subscripts, as `NAME: fact fact ...` strings (for diagnostics).
    pub index_facts: Vec<String>,
}

/// [`analyze_unit_recorded`] with nothing recording.
#[cfg(test)]
pub(crate) fn analyze_unit(
    unit: &mut ProgramUnit,
    opts: &PassOptions,
    stats: &DdStats,
) -> Vec<LoopReport> {
    analyze_unit_recorded(unit, opts, stats, &polaris_obs::Recorder::disabled())
}

/// Analyze every loop of `unit` and attach [`ParallelInfo`] annotations.
/// `rec` gets a `unit:<name>` span enclosing a `loop:<label>` span
/// (carrying the loop's [`LoopId`]) per analyzed loop.
pub(crate) fn analyze_unit_recorded(
    unit: &mut ProgramUnit,
    opts: &PassOptions,
    stats: &DdStats,
    rec: &polaris_obs::Recorder,
) -> Vec<LoopReport> {
    let _unit_span =
        rec.span_with("compile", format!("unit:{}", unit.name), 1, None, Some(unit.name.clone()));
    // Phase 1 (read-only): decide per loop, keyed by provenance id
    // (labels are human-readable but inlining can in principle produce
    // collisions; LoopId is the uniqueness-checked key).
    let mut decisions: BTreeMap<LoopId, (ParallelInfo, LoopReport)> = BTreeMap::new();
    {
        let mut env = RangeEnv::new();
        add(&stats.ranges_propagated, rangeprop::seed_parameters(unit, &mut env));
        let unit_ref: &ProgramUnit = unit;
        analyze_list(&unit_ref.body, unit_ref, &mut env, opts, stats, rec, &mut decisions);
    }
    // Phase 2: apply annotations. (`unit_span` closes by drop when the
    // function returns, after the reports are assembled.)
    let mut reports: Vec<LoopReport> = Vec::new();
    unit.body.walk_mut(&mut |s| {
        if let StmtKind::Do(d) = &mut s.kind {
            if let Some((info, report)) = decisions.remove(&d.loop_id) {
                d.par = info;
                reports.push(report);
            }
        }
    });
    reports.sort_by(|a, b| a.label.cmp(&b.label));
    reports
}

fn add(c: &std::cell::Cell<u64>, n: u64) {
    c.set(c.get() + n);
}

fn bump(c: &std::cell::Cell<u64>) {
    add(c, 1);
}

/// Decide every loop of `list`, carrying [`rangeprop`]'s environment.
fn analyze_list(
    list: &StmtList,
    unit: &ProgramUnit,
    env: &mut RangeEnv,
    opts: &PassOptions,
    stats: &DdStats,
    rec: &polaris_obs::Recorder,
    out: &mut BTreeMap<LoopId, (ParallelInfo, LoopReport)>,
) {
    for s in list {
        match &s.kind {
            StmtKind::Do(d) => {
                let mut body_env = rangeprop::enter_loop(env, d);
                bump(&stats.ranges_propagated);
                // The loop span covers the nested walk too, so inner
                // loops appear as children of their enclosing loop.
                let loop_span = rec.loop_span("compile", &d.label, d.loop_id);
                let decision = analyze_loop(d, s.id, unit, &body_env, opts, stats);
                out.insert(d.loop_id, decision);
                analyze_list(&d.body, unit, &mut body_env, opts, stats, rec, out);
                loop_span.end();
            }
            StmtKind::IfBlock { arms, else_body } => {
                let mut envs = rangeprop::enter_if(env, arms, else_body);
                for (body, env) in rangeprop::branches(arms, else_body).zip(&mut envs) {
                    analyze_list(body, unit, env, opts, stats, rec, out);
                }
            }
            _ => add(&stats.ranges_propagated, rangeprop::step_over(env, s)),
        }
    }
}

/// The decision `info` on loop `d`, with its report: what the report
/// says of the loop is read off the annotation, `index_facts` aside.
fn decided(
    d: &DoLoop,
    unit: &ProgramUnit,
    info: ParallelInfo,
    index_facts: Vec<String>,
) -> (ParallelInfo, LoopReport) {
    let report = LoopReport {
        label: d.label.clone(),
        loop_id: d.loop_id,
        unit: unit.name.clone(),
        parallel: info.parallel,
        speculative: info.speculative.is_some(),
        serial_reason: info.serial_reason.clone(),
        private: info.private.clone(),
        copy_out: info.copy_out.clone(),
        reductions: info.reductions.iter().map(|r| format!("{}:{}", r.op.fortran(), r.var)).collect(),
        index_facts,
    };
    (info, report)
}

fn serial(
    d: &DoLoop,
    unit: &ProgramUnit,
    reason: impl Into<String>,
) -> (ParallelInfo, LoopReport) {
    let info = ParallelInfo { serial_reason: Some(reason.into()), ..Default::default() };
    decided(d, unit, info, Vec::new())
}

/// Decide one loop. `env` holds ranges valid inside the body.
fn analyze_loop(
    d: &DoLoop,
    stmt_id: StmtId,
    unit: &ProgramUnit,
    env: &RangeEnv,
    opts: &PassOptions,
    stats: &DdStats,
) -> (ParallelInfo, LoopReport) {
    if let Some(why) = find_serializing_stmt(&d.body) {
        return serial(d, unit, why);
    }
    let Some(step) = d.step_expr().simplified().as_int() else {
        return serial(d, unit, "non-constant loop step");
    };
    if step == 0 {
        return serial(d, unit, "zero loop step");
    }

    // Idiom facts local to an iteration.
    let mut env = env.clone();
    let _compactions = privatize::recognize_compactions(&d.body, &mut env);

    let view = IterView::of(&d.body);
    let mut reductions = reduction::validated_reductions(&view, &d.var);
    if !opts.array_reductions {
        // keep scalar reductions only
        reductions.retain(|r| view.named(&r.var).all(|a| a.is_scalar()));
    }
    let reduction_vars: BTreeSet<String> = reductions.iter().map(|r| r.var.clone()).collect();

    let mut private: Vec<String> = Vec::new();
    let mut copy_out: Vec<String> = Vec::new();

    // --- index-array properties (§ subscripted subscripts) -----------------
    // The fill-time facts of an array written inside this loop are stale
    // here, so neither seeding nor the disjointness rule may use them.
    if opts.index_props {
        // Register proven whole-array value bounds so the range test and
        // the §3.4 region analysis can bound reads like `A(IDX(L))`.
        let seeded = crate::idxprop::seed_array_value_ranges(unit, &view.written_arrays, &mut env);
        add(&stats.ranges_propagated, seeded as u64);
    }
    // Facts visible to this loop's subscripted subscripts (diagnostics).
    let index_facts: Vec<String> = if opts.index_props {
        let mut used: BTreeSet<String> = BTreeSet::new();
        for arr in view.refs.iter().flat_map(|a| &a.subs).flat_map(|sub| sub.arrays()) {
            if view.written_arrays.contains(&arr) {
                continue;
            }
            if let Some(p) = unit.symbols.get(&arr).and_then(|s| s.props.as_ref()) {
                used.insert(format!("{arr}: {}", p.facts().join(" ")));
            }
        }
        used.into_iter().collect()
    } else {
        Vec::new()
    };

    // --- scalars -----------------------------------------------------------
    for name in &view.written_scalars {
        if reduction_vars.contains(name) {
            continue;
        }
        if privatize::scalar_privatizable(d, name) {
            // An inner loop's index is asked the question every written
            // scalar is: private, and copied out when read afterwards.
            let live_after = if view.loop_vars.contains(name) {
                privatize::index_live_after
            } else {
                privatize::live_after
            };
            if live_after(unit, stmt_id, name) {
                if privatize::scalar_write_unconditional(d, name) {
                    private.push(name.clone());
                    copy_out.push(name.clone());
                } else {
                    return serial(
                        d,
                        unit,
                        format!("scalar `{name}` live after loop with conditional final write"),
                    );
                }
            } else {
                private.push(name.clone());
            }
        } else {
            return serial(d, unit, format!("scalar recurrence on `{name}`"));
        }
    }

    // --- arrays ------------------------------------------------------------
    let mut speculative_tracked: Vec<String> = Vec::new();
    let mut dropped_reductions: Vec<String> = Vec::new();
    for name in &view.written_arrays {
        // Every access counts, reduction-flagged or not: the flags only
        // mean something when the reduction validated for this loop.
        let refs: Vec<&Ref> = view.named(name).collect();
        if pairs_independent(d, &refs, step, &env, opts, stats) {
            // Proven independent outright: "the data-dependence pass
            // later ... removes the flags for those statements which it
            // can prove have no loop-carried dependences" (§3.2) — a
            // plain DOALL beats paying the reduction merge.
            if reduction_vars.contains(name) {
                dropped_reductions.push(name.clone());
            }
            continue;
        }
        // The classic tests failed (typically an abstention on an opaque
        // `A(IDX(I))` subscript): consult proven index-array properties —
        // an injective `IDX` over a contained domain makes the scatter a
        // DOALL (Bhosale & Eigenmann-style subscripted-subscript rule).
        if opts.index_props && pairs_disjoint_by_props(d, &refs, step, unit, &view, &env, stats) {
            if reduction_vars.contains(name) {
                dropped_reductions.push(name.clone());
            }
            continue;
        }
        if reduction_vars.contains(name) {
            continue; // validated reduction: handled by merge at run time
        }
        let declared: Option<Vec<(Poly, Poly)>> = unit.symbols.get(name).and_then(|sym| {
            sym.dims()
                .iter()
                .map(|dim| {
                    Some((
                        Poly::from_expr(&dim.lo, DivPolicy::Opaque)?,
                        Poly::from_expr(&dim.hi, DivPolicy::Opaque)?,
                    ))
                })
                .collect()
        });
        let priv_ok = opts.array_privatization
            && privatize::array_privatizable(&view, name, &env, declared.as_deref()).is_ok();
        if priv_ok
            && !privatize::live_after(unit, stmt_id, name) {
                private.push(name.clone());
                continue;
            }
            // privatizable but the values escape: fall through to the
            // run-time test, which handles copy-out, before giving up.
        // Speculate only when the opaque accesses sit directly in this
        // loop's body (the innermost enclosing loop of the scatter):
        // speculating an enclosing loop would re-test the same elements
        // across outer iterations and fail spuriously.
        if opts.speculation
            && has_subscripted_subscript(&refs)
            && refs.iter().all(|a| a.ctx.is_empty())
        {
            speculative_tracked.push(name.clone());
            continue;
        }
        if priv_ok {
            return serial(d, unit, format!("array `{name}` privatizable but live after loop"));
        }
        return serial(d, unit, format!("possible carried dependence on array `{name}`"));
    }

    // --- assemble ------------------------------------------------------------
    private.sort();
    private.dedup();
    copy_out.sort();
    copy_out.dedup();
    // Reductions only matter if the variable is actually updated here,
    // and proven-independent arrays do not need the reduction transform.
    let reductions: Vec<_> = reductions
        .into_iter()
        .filter(|r| view.named(&r.var).any(|a| a.is_write))
        .filter(|r| !dropped_reductions.contains(&r.var))
        .collect();
    // A loop the run-time test must check is no DOALL.
    let speculative = (!speculative_tracked.is_empty())
        .then(|| SpecInfo { tracked: speculative_tracked, privatized: Vec::new() });
    let info = ParallelInfo {
        parallel: speculative.is_none(),
        private,
        copy_out,
        reductions,
        speculative,
        lastvalue: Vec::new(),
        serial_reason: None,
    };
    decided(d, unit, info, index_facts)
}

/// Bridge the iteration view to the idxprop disjointness rule: `varying`
/// is everything the body writes, and the property lookup answers `None`
/// for any array among it (stale facts).
fn pairs_disjoint_by_props(
    d: &DoLoop,
    refs: &[&Ref],
    step: i64,
    unit: &ProgramUnit,
    view: &IterView,
    env: &RangeEnv,
    stats: &DdStats,
) -> bool {
    let Some(self_loop) = loop_as_inner(d, step) else {
        return false;
    };
    let mut varying: BTreeSet<String> = view.written().cloned().collect();
    varying.remove(&d.var);
    let accesses: Vec<crate::idxprop::PropAccess<'_>> = refs
        .iter()
        .map(|a| crate::idxprop::PropAccess {
            write: a.is_write,
            subs: &a.subs,
            ctx_vars: a.ctx.iter().map(|c| c.var.clone()).collect(),
        })
        .collect();
    let props = |n: &str| {
        if varying.contains(&n.to_ascii_uppercase()) {
            return None;
        }
        unit.symbols.get(n).and_then(|s| s.props.clone())
    };
    crate::idxprop::pairs_disjoint_via_props(&accesses, &self_loop, &varying, env, &props, stats)
}

/// Does any reference use an array element as a subscript (the §3.5
/// trigger for run-time testing)?
fn has_subscripted_subscript(refs: &[&Ref]) -> bool {
    refs.iter().any(|a| a.subs.iter().any(|s| !s.arrays().is_empty()))
}

/// Are all (write, any) pairs of `refs` independent at loop `d`?
fn pairs_independent(
    d: &DoLoop,
    refs: &[&Ref],
    step: i64,
    env: &RangeEnv,
    opts: &PassOptions,
    stats: &DdStats,
) -> bool {
    let self_loop = match loop_as_inner(d, step) {
        Some(sl) => sl,
        None => return false,
    };
    // One range test for the loop: a reference in several pairs has its
    // inner loops eliminated once.
    let mut range_test =
        range_test::LoopTest::new(&d.var, step, &self_loop, env, stats, opts.permutation);
    for (i, w) in refs.iter().enumerate() {
        if !w.is_write {
            continue;
        }
        for (j, o) in refs.iter().enumerate() {
            if j < i && o.is_write {
                continue; // (w2, w1) already tested as (w1, w2)
            }
            if !pair_independent(d, w, o, step, &mut range_test, opts, stats) {
                return false;
            }
        }
    }
    true
}

fn loop_as_inner(d: &DoLoop, step: i64) -> Option<range_test::InnerLoop> {
    Some(range_test::InnerLoop {
        var: d.var.clone(),
        lo: Poly::from_expr(&d.init, DivPolicy::Exact)?,
        hi: Poly::from_expr(&d.limit, DivPolicy::Exact)?,
        step,
    })
}

fn pair_independent<'a>(
    d: &DoLoop,
    f: &'a Ref,
    g: &'a Ref,
    step: i64,
    range_test: &mut range_test::LoopTest<'a>,
    opts: &PassOptions,
    stats: &DdStats,
) -> bool {
    // Range-test query accounting: every pair the driver asks about is a
    // `run`, partitioned into proved / disproved / abstained (the last
    // when the subscripts or bounds fall outside the symbolic fragment).
    if opts.range_test {
        bump(&stats.range_tests_run);
        if f.spec().is_none() || g.spec().is_none() {
            bump(&stats.range_abstained);
        }
    }
    let (Some(fr), Some(gr)) = (f.spec(), g.spec()) else {
        return false;
    };
    if opts.range_test {
        if range_test.no_carried_dependence(fr, gr) {
            bump(&stats.range_proved);
            return true;
        }
        bump(&stats.range_disproved);
    }
    linear_pair_independent(d, f, g, step, stats)
}

/// GCD + Banerjee on one pair, per subscript dimension: the GCD test
/// over the coefficients, then the carried test over the boxes. Any
/// dimension that cannot hit the same element proves the pair.
fn linear_pair_independent(d: &DoLoop, f: &Ref, g: &Ref, step: i64, stats: &DdStats) -> bool {
    let tested = [affine::Loop::new(&d.var, &d.init, &d.limit, Some(step))];
    let (unit_steps, dims) = affine::pair_dims(f, g, &tested);
    let mut dims = dims.flatten();
    dims.any(|p| {
        gcd::independent(p.c0, p.coefficients(), stats)
            || (unit_steps
                && !banerjee::carried_dependence_possible(p.c0, &p.common, 0, &p.free, stats))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PassOptions;

    fn analyze(src: &str, opts: &PassOptions) -> (polaris_ir::Program, Vec<LoopReport>) {
        let mut p = polaris_ir::parse(src).unwrap();
        crate::constprop::run(&mut p);
        let stats = DdStats::new();
        let mut reports = Vec::new();
        for unit in &mut p.units {
            reports.extend(analyze_unit(unit, opts, &stats));
        }
        (p, reports)
    }

    fn report<'a>(reports: &'a [LoopReport], frag: &str) -> &'a LoopReport {
        reports
            .iter()
            .find(|r| r.label.contains(frag))
            .unwrap_or_else(|| panic!("no loop labelled like {frag}: {reports:?}"))
    }

    #[test]
    fn independent_loop_is_parallel() {
        let src = "program t\nreal a(100)\ndo i = 1, 100\n  a(i) = i * 2.0\nend do\nend\n";
        let (_, r) = analyze(src, &PassOptions::polaris());
        assert!(r[0].parallel, "{r:?}");
    }

    #[test]
    fn recurrence_is_serial() {
        let src = "program t\nreal a(101)\ndo i = 1, 100\n  a(i) = a(i+1) + 1.0\nend do\nend\n";
        let (_, r) = analyze(src, &PassOptions::polaris());
        assert!(!r[0].parallel);
        assert!(r[0].serial_reason.as_deref().unwrap().contains("A"));
    }

    #[test]
    fn scalar_temp_privatized() {
        let src = "program t\nreal a(100), b(100)\ndo i = 1, 100\n  t = a(i) * 2.0\n  b(i) = t + 1.0\nend do\nend\n";
        let (p, r) = analyze(src, &PassOptions::polaris());
        assert!(r[0].parallel);
        assert_eq!(r[0].private, vec!["T"]);
        // annotation landed on the IR
        let d = p.units[0].body.loops()[0];
        assert!(d.par.parallel);
        assert_eq!(d.par.private, vec!["T"]);
    }

    #[test]
    fn reduction_validated_and_annotated() {
        let src = "program t\nreal a(100)\ns = 0.0\ndo i = 1, 100\n  s = s + a(i)\nend do\nprint *, s\nend\n";
        let mut p = polaris_ir::parse(src).unwrap();
        crate::reduction::flag_reductions(&mut p);
        let stats = DdStats::new();
        let opts = PassOptions::polaris();
        let mut reports = Vec::new();
        for unit in &mut p.units {
            reports.extend(analyze_unit(unit, &opts, &stats));
        }
        assert!(reports[0].parallel, "{reports:?}");
        assert_eq!(reports[0].reductions, vec!["+:S"]);
    }

    #[test]
    fn io_serializes() {
        let src = "program t\nreal a(10)\ndo i = 1, 10\n  print *, a(i)\nend do\nend\n";
        let (_, r) = analyze(src, &PassOptions::polaris());
        assert!(!r[0].parallel);
        assert!(r[0].serial_reason.as_deref().unwrap().contains("I/O"));
    }

    #[test]
    fn nonlinear_subscript_needs_range_test() {
        // A(n*i + j) dense blocks: Polaris parallel; VFA (linear only) serial.
        let src = "program t\nreal a(10000)\n!$assert (n >= 1)\ndo i = 0, 99\n  do j = 1, n\n    a(n*i + j) = 1.0\n  end do\nend do\nend\n";
        let (_, r) = analyze(src, &PassOptions::polaris());
        assert!(report(&r, "do4").parallel, "{r:?}");
        let (_, r2) = analyze(src, &PassOptions::vfa());
        assert!(!report(&r2, "do4").parallel, "{r2:?}");
    }

    #[test]
    fn linear_case_handled_by_both() {
        let src = "program t\nreal a(100,100)\ndo i = 1, 100\n  do j = 1, 100\n    a(i, j) = 1.0\n  end do\nend do\nend\n";
        let (_, r) = analyze(src, &PassOptions::polaris());
        assert!(r.iter().all(|x| x.parallel), "{r:?}");
        let (_, r2) = analyze(src, &PassOptions::vfa());
        assert!(r2.iter().all(|x| x.parallel), "{r2:?}");
    }

    #[test]
    fn vfa_banerjee_proves_constant_bounds_case() {
        // A(i) = A(i + 200): distance exceeds the iteration count.
        let src = "program t\nreal a(400)\ndo i = 1, 100\n  a(i) = a(i + 200)\nend do\nend\n";
        let (_, r) = analyze(src, &PassOptions::vfa());
        assert!(r[0].parallel, "{r:?}");
    }

    #[test]
    fn huge_offset_under_a_symbolic_bound_is_serial() {
        // A(I) = A(I+40000000) carries a dependence as soon as N exceeds
        // the offset; an unknown N must not be read as "at most 2^24".
        let src = |limit: &str| {
            format!(
                "program t\nreal a(100000000)\ninteger ia(10)\nn = ia(1)\n\
                 do i = 1, {limit}\n  a(i) = a(i+40000000) + 1.0\nend do\nend\n"
            )
        };
        for opts in [PassOptions::polaris(), PassOptions::vfa()] {
            let (_, r) = analyze(&src("n"), &opts);
            assert!(!r[0].parallel, "{r:?}");
            assert!(r[0].serial_reason.as_deref().unwrap().contains("`A`"), "{r:?}");
            let (_, r) = analyze(&src("1000"), &opts);
            assert!(r[0].parallel, "a known trip count below the offset: {r:?}");
        }
    }

    /// `DO I = 1, 100` over `body`, with `K` unknown at compile time.
    fn over_unknown_k(body: &str) -> String {
        format!(
            "program t\nreal a(200), b(100)\ninteger ia(4), k, jt\nk = ia(1)\n\
             do i = 1, 100\n{body}end do\nprint *, a(5)\nend\n"
        )
    }

    #[test]
    fn a_private_scalar_left_in_a_subscript_is_no_function_of_the_iteration() {
        // JT = 5-I+K: every iteration writes A(5+K). The second assignment
        // reads JT itself, so it is not substituted, and JT in the
        // subscript is not a fixed symbol.
        let collide = over_unknown_k("  jt = 5 - i\n  jt = jt + k\n  a(jt + i) = i*1.0\n");
        // JT is I or 101-I: iterations I and 101-I meet.
        let conditional = over_unknown_k(
            "  jt = i\n  if (b(i) .gt. 0.0) jt = 101 - i\n  a(jt + i) = i*1.0\n",
        );
        // A(IDX(1)+I) with IDX(1) = 5-I: the same through a private array.
        let through_array = "program t\nreal a(200)\ninteger idx(4)\n\
             do i = 1, 100\n  idx(1) = 5 - i\n  a(idx(1) + i) = i*1.0\nend do\n\
             print *, a(5)\nend\n";
        for opts in [PassOptions::polaris(), PassOptions::vfa()] {
            for src in [collide.as_str(), conditional.as_str(), through_array] {
                let (_, r) = analyze(src, &opts);
                assert!(!r[0].parallel, "{src}: {r:?}");
            }
            // The resolvable twin is A(5+I).
            let (_, r) = analyze(&over_unknown_k("  jt = 5 - i\n  a(jt + 2*i) = i*1.0\n"), &opts);
            assert!(r[0].parallel, "{r:?}");
            assert_eq!(r[0].private, vec!["JT"]);
        }
    }

    #[test]
    fn an_unresolved_scalar_proves_nothing_and_a_clean_dimension_still_proves() {
        let stats = DdStats::new();
        let src = over_unknown_k("  jt = 5 - i\n  jt = jt + k\n  a(jt + i) = i*1.0\n");
        let mut p = polaris_ir::parse(&src).unwrap();
        analyze_unit(&mut p.units[0], &PassOptions::polaris(), &stats);
        assert_eq!(stats.range_outcomes(), (1, 0, 1, 0), "asked, over a subscript that is unknown");
        let (banerjee, gcd, ..) = stats.snapshot();
        assert_eq!((banerjee, gcd), (0, 0), "GCD and Banerjee are not consulted");
        // X(I, JT) keeps its proof through dimension 1.
        let src = "program t\nreal x(100,200)\ninteger ia(4), k, jt\nk = ia(1)\n\
             do i = 1, 100\n  jt = 5 - i\n  jt = jt + k\n  x(i, jt) = i*1.0\nend do\n\
             print *, x(1,1)\nend\n";
        let (_, r) = analyze(src, &PassOptions::polaris());
        assert!(r[0].parallel, "{r:?}");
    }

    #[test]
    fn a_point_loop_bound_resolves_through_its_tile_assignment() {
        // What `normalize` makes of a printed tile loop: the point loop's
        // bounds read a scalar the body assigns.
        let src = "program t\nreal b(34)\ninteger jt\n\
             do jn = 0, 3\n  jt = 2 + jn*8\n  do j = jt, jt + 7\n    b(j) = 1.0\n  end do\nend do\n\
             print *, b(2)\nend\n";
        let (_, r) = analyze(src, &PassOptions::polaris());
        assert!(r.iter().all(|l| l.parallel), "{r:?}");
    }

    #[test]
    fn integer_division_subscript_is_serial_for_the_classical_tests() {
        // A(I/2): I = 2 and I = 3 hit the same element. A truncating
        // division is not affine in I, so it is no GCD/Banerjee problem —
        // neither test may prove anything from it.
        let src = "program t\nreal a(100)\ndo i = 1, 100\n  a(i/2) = a(i/2) + 1.0\nend do\nend\n";
        let (_, r) = analyze(src, &PassOptions::vfa());
        assert!(!r[0].parallel, "{r:?}");
        assert!(r[0].serial_reason.as_deref().unwrap().contains("`A`"), "{r:?}");
    }

    #[test]
    fn subscripted_subscript_goes_speculative() {
        let src = "program t\nreal a(100)\ninteger key(100)\ndo i = 1, 100\n  a(key(i)) = a(key(i)) + 1.0\nend do\nend\n";
        // make it not look like a reduction: different sides
        let src2 = "program t\nreal a(100), b(100)\ninteger key(100)\ndo i = 1, 100\n  a(key(i)) = b(i)\nend do\nprint *, a(1)\nend\n";
        let _ = src;
        let (p, r) = analyze(src2, &PassOptions::polaris());
        assert!(r[0].speculative, "{r:?}");
        let d = p.units[0].body.loops()[0];
        assert_eq!(d.par.speculative.as_ref().unwrap().tracked, vec!["A"]);
        // VFA has no run-time fallback
        let (_, r2) = analyze(src2, &PassOptions::vfa());
        assert!(!r2[0].speculative && !r2[0].parallel);
    }

    #[test]
    fn injective_index_scatter_parallel_via_props() {
        // Identity fill proves IDX injective over 1..100; the scatter
        // through it is then a DOALL — no LRPD shadows needed.
        let src = "program t\nreal a(100), b(100)\ninteger idx(100)\n\
                   do i = 1, 100\n  idx(i) = i\nend do\n\
                   do i = 1, 100\n  a(idx(i)) = b(i)\nend do\n\
                   print *, a(1)\nend\n";
        let mut p = polaris_ir::parse(src).unwrap();
        crate::idxprop::annotate(&mut p);
        let stats = DdStats::new();
        let opts = PassOptions::polaris();
        let mut reports = Vec::new();
        for unit in &mut p.units {
            reports.extend(analyze_unit(unit, &opts, &stats));
        }
        let scatter = report(&reports, "do7");
        assert!(scatter.parallel && !scatter.speculative, "{reports:?}");
        assert_eq!(stats.props_outcomes().1, 1, "proved via the property rule");
        assert_eq!(scatter.index_facts,
            vec!["IDX: strictly-increasing injective permutation bounded"]);
        // The annotation landed on the IR too.
        let d = p.units[0].body.loops()[1];
        assert!(d.par.parallel);
    }

    #[test]
    fn prefix_sum_scatter_parallel_via_props() {
        // CSR-style rowptr: strictly increasing accumulation with a
        // variable (but >= 1) increment; consumer scatter is a DOALL.
        let src = "program t\nreal a(500), b(100)\ninteger ps(100)\n\
                   ps(1) = 1\ndo i = 2, 100\n  ps(i) = ps(i-1) + mod(i, 4) + 1\nend do\n\
                   do i = 1, 100\n  a(ps(i)) = b(i)\nend do\n\
                   print *, a(1)\nend\n";
        let mut p = polaris_ir::parse(src).unwrap();
        crate::idxprop::annotate(&mut p);
        let stats = DdStats::new();
        let opts = PassOptions::polaris();
        let mut reports = Vec::new();
        for unit in &mut p.units {
            reports.extend(analyze_unit(unit, &opts, &stats));
        }
        let scatter = report(&reports, "do8");
        assert!(scatter.parallel && !scatter.speculative, "{reports:?}");
        // The fill loop itself carries the recurrence and stays serial.
        assert!(!report(&reports, "do5").parallel);
    }

    #[test]
    fn out_of_domain_scatter_falls_back_to_lrpd() {
        // The fill covers 1..50 but the scatter runs to 100: elements
        // 51..100 hold unproven values, so the property rule refuses and
        // the loop goes to the run-time test instead.
        let src = "program t\nreal a(100), b(100)\ninteger idx(100)\n\
                   do i = 1, 50\n  idx(i) = i\nend do\n\
                   do i = 1, 100\n  a(idx(i)) = b(i)\nend do\n\
                   print *, a(1)\nend\n";
        let mut p = polaris_ir::parse(src).unwrap();
        crate::idxprop::annotate(&mut p);
        let stats = DdStats::new();
        let opts = PassOptions::polaris();
        let mut reports = Vec::new();
        for unit in &mut p.units {
            reports.extend(analyze_unit(unit, &opts, &stats));
        }
        let scatter = report(&reports, "do7");
        assert!(scatter.speculative && !scatter.parallel, "{reports:?}");
        let (run, proved) = stats.props_outcomes();
        assert!(run >= 1 && proved == 0, "rule consulted but refused");
    }

    #[test]
    fn non_injective_index_scatter_stays_speculative() {
        // MOD fill is bounded but not injective: duplicate targets are
        // a real cross-iteration output dependence; must go to LRPD.
        let src = "program t\nreal a(16), b(100)\ninteger bin(100)\n\
                   do i = 1, 100\n  bin(i) = mod(i*7, 16) + 1\nend do\n\
                   do i = 1, 100\n  a(bin(i)) = b(i)\nend do\n\
                   print *, a(1)\nend\n";
        let mut p = polaris_ir::parse(src).unwrap();
        crate::idxprop::annotate(&mut p);
        let stats = DdStats::new();
        let opts = PassOptions::polaris();
        let mut reports = Vec::new();
        for unit in &mut p.units {
            reports.extend(analyze_unit(unit, &opts, &stats));
        }
        let scatter = report(&reports, "do7");
        assert!(scatter.speculative && !scatter.parallel, "{reports:?}");
        // Bounded fact is still surfaced for diagnostics.
        assert_eq!(scatter.index_facts, vec!["BIN: bounded"]);
    }

    #[test]
    fn array_privatization_gates_outer_loop() {
        let src = "program t\nreal a(100), b(100,100), c(100,100)\ninteger m\nm = 60\ndo i = 1, 100\n  do j = 1, m\n    a(j) = b(i, j)\n  end do\n  do k = 1, m\n    c(i, k) = a(k) * 2.0\n  end do\nend do\nend\n";
        let (_, r) = analyze(src, &PassOptions::polaris());
        let outer = report(&r, "do5");
        assert!(outer.parallel, "{r:?}");
        assert!(outer.private.contains(&"A".to_string()));
        // VFA cannot privatize arrays
        let (_, r2) = analyze(src, &PassOptions::vfa());
        assert!(!report(&r2, "do5").parallel);
    }

    #[test]
    fn live_after_blocks_array_privatization() {
        let src = "program t\nreal a(100), b(100,100), c(100,100)\ninteger m\nm = 60\ndo i = 1, 100\n  do j = 1, m\n    a(j) = b(i, j)\n  end do\n  do k = 1, m\n    c(i, k) = a(k) * 2.0\n  end do\nend do\nprint *, a(1)\nend\n";
        let (_, r) = analyze(src, &PassOptions::polaris());
        let outer = report(&r, "do5");
        assert!(!outer.parallel);
        assert!(outer.serial_reason.as_deref().unwrap().contains("live after"));
    }

    #[test]
    fn copy_out_for_live_scalar() {
        let src = "program t\nreal a(100), b(100)\ndo i = 1, 100\n  t = a(i)\n  b(i) = t\nend do\nprint *, t\nend\n";
        let (_, r) = analyze(src, &PassOptions::polaris());
        assert!(r[0].parallel, "{r:?}");
        assert_eq!(r[0].copy_out, vec!["T"]);
    }

    #[test]
    fn copy_out_for_scalar_read_by_the_enclosing_if_on_the_back_edge() {
        // T is dead after the J loop, but the IF the I loop sits in reads
        // it again when J comes round.
        let src = "program t\nreal a(100), b(100)\nt = 1.0\ndo j = 1, 10\n  if (t > 0.5) then\n    do i = 1, 100\n      t = a(i)\n      b(i) = t\n    end do\n  end if\nend do\nend\n";
        let (_, r) = analyze(src, &PassOptions::polaris());
        let inner = report(&r, "do6");
        assert!(inner.parallel, "{r:?}");
        assert_eq!(inner.copy_out, vec!["T"]);
    }

    #[test]
    fn inner_loop_vars_are_private() {
        let src = "program t\nreal a(100,100)\ndo i = 1, 100\n  do j = 1, 100\n    a(i, j) = 1.0\n  end do\nend do\nend\n";
        let (_, r) = analyze(src, &PassOptions::polaris());
        let outer = report(&r, "do3");
        assert!(outer.private.contains(&"J".to_string()));
    }

    #[test]
    fn triangular_symbolic_loop_parallel() {
        // the induction-produced TRFD form, outer loop
        let src = "program t\nreal a(100000)\ninteger x\n!$assert (n >= 1)\nx = 0\ndo i = 0, m - 1\n  do j = 0, n - 1\n    do k = 0, j - 1\n      a(k + 1 + (i*(n**2+n) + j**2 - j)/2) = 1.0\n    end do\n  end do\nend do\nend\n";
        let (_, r) = analyze(src, &PassOptions::polaris());
        assert!(r.iter().all(|x| x.parallel), "{r:?}");
        let (_, r2) = analyze(src, &PassOptions::vfa());
        // VFA's linear tests legitimately prove the *innermost* loop
        // (coefficient 1 on K, outer loops "="); the symbolic outer
        // loops — where the real speedup lives — stay serial.
        assert!(!report(&r2, "do6").parallel, "{r2:?}");
        assert!(!report(&r2, "do7").parallel, "{r2:?}");
    }

    #[test]
    fn ocean_figure3_parallel_via_permutation() {
        let src = "program t\nreal a(2000000)\ninteger x, zz(200)\n!$assert (x >= 1)\n!$assert (nn >= 0)\ndo k = 0, x - 1\n  do j = 0, nn\n    do i = 0, 128\n      a(258*x*j + 129*k + i + 1) = 1.0\n      a(258*x*j + 129*k + i + 1 + 129*x) = 2.0\n    end do\n  end do\nend do\nend\n";
        let stats = DdStats::new();
        let mut p = polaris_ir::parse(src).unwrap();
        crate::constprop::run(&mut p);
        let opts = PassOptions::polaris();
        let mut reports = Vec::new();
        for unit in &mut p.units {
            reports.extend(analyze_unit(unit, &opts, &stats));
        }
        assert!(reports.iter().all(|x| x.parallel), "{reports:?}");
        assert!(stats.permutations_used.get() >= 1);
    }
}

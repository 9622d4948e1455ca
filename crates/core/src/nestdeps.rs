//! Nest-level dependence summaries and the transformation legality
//! prover, driving loop interchange, rectangular tiling and
//! adjacent-loop fusion.
//!
//! The per-loop dependence driver (`crate::deps`) answers one question
//! per loop: *can this loop run in parallel?* Iteration-reordering
//! transformations need a richer answer: the full matrix of dependence
//! **direction/distance vectors** over a whole loop nest. This module
//! lifts the per-pair `ddtest::banerjee` machinery (via the exhaustive
//! `banerjee::direction_vector_trials` refinement) to nest summaries:
//!
//! * every perfect band of a loop nest is summarized as a
//!   [`NestSummary`] — one canonical (lexicographically non-negative)
//!   [`DepVector`] row per feasible dependence direction, with constant
//!   distances where the subscripts determine them;
//! * pairs outside the affine fragment (symbolic bounds, non-linear or
//!   context-nested subscripts) fall back to an all-`*` row — sound,
//!   never silent;
//! * dependences whose both endpoints are *validated reduction*
//!   statements on the same target with the same operator are tagged
//!   **relaxable** (the Polly reductions model): a reduction update may
//!   be reordered freely, so relaxable rows are exempt from legality
//!   blocking while remaining visible as evidence.
//!
//! On top of the summary sits the **legality prover**:
//! [`interchange_legal`] (no non-relaxable vector becomes
//! lexicographically negative under the permutation), [`tiling_legal`]
//! (the band is fully permutable: every non-relaxable vector is carried
//! outside the band or has only `=`/`<` components inside it), and
//! [`fusion_legal`] (no `>`-feasible cross-body dependence, which would
//! invert producer/consumer order after fusion). Each applied
//! transformation emits a machine-checkable [`LegalityCert`] that
//! `polaris-verify` independently re-derives from the transformed IR —
//! the `idxprop` refusal pattern; a cert the re-prover cannot reproduce
//! is rejected, never believed.
//!
//! Variant selection uses a stride-based locality cost model
//! ([`stride_penalty`], `permutation_score`) over the machine's
//! column-major layout: unit-stride innermost access is cheap, a
//! column-crossing access pays a memory-class penalty (eight of the
//! machine cost model's memory accesses; the conformance tier checks the
//! constant against `polaris_machine::CostModel`).

use crate::ddtest::{affine, banerjee, DdStats, Dir};
use crate::iterview::{write_pairs, IterView, Ref};
use crate::reduction;
use polaris_ir::cert::{CertKind, DepVector, LegalityCert, NestDir};
use polaris_ir::expr::Expr;
use polaris_ir::stmt::{DoLoop, LoopId, Stmt, StmtId, StmtKind, StmtList};
use polaris_ir::symbol::Symbol;
use polaris_ir::types::DataType;
use polaris_ir::ProgramUnit;
use std::collections::BTreeMap;

/// Tile size for rectangular tiling. Tiling is applied only when every
/// band trip count is a constant multiple of this, so the synthesized
/// point-loop bounds stay affine (`DO I = IT, IT + 7`) and every
/// downstream analysis keeps working — no `MIN` guard needed.
pub(crate) const TILE: i64 = 8;

/// Minimum constant trip count before tiling is worth the extra loop
/// bookkeeping.
pub(crate) const TILE_MIN_TRIP: i64 = 16;

/// Deepest band the interchange and tiling stages consider. A summary
/// refines up to 3ⁿ direction vectors per access pair and dimension and
/// interchange scores n! orders, so this depth is the stages' cost bound:
/// deeper bands are gated out before anything is summarised.
const MAX_PERM_DEPTH: usize = 4;

// ---------------------------------------------------------------------
// Nest discovery and summaries
// ---------------------------------------------------------------------

/// One loop of a summarized band, outermost first.
#[derive(Debug, Clone)]
pub struct NestLoop {
    pub var: String,
    pub loop_id: LoopId,
    pub label: String,
    /// Constant lower/upper bound when known.
    pub lo: Option<i64>,
    pub hi: Option<i64>,
    /// Step is the constant 1 (the only shape the vector builder
    /// handles precisely; anything else falls back to `*`).
    pub unit_step: bool,
}

impl NestLoop {
    pub fn of(d: &DoLoop) -> NestLoop {
        NestLoop {
            var: d.var.clone(),
            loop_id: d.loop_id,
            label: d.label.clone(),
            lo: d.init.simplified().as_int(),
            hi: d.limit.simplified().as_int(),
            unit_step: d.step_expr().simplified().as_int() == Some(1),
        }
    }

    /// The loop as the box the affine tests ask directions about.
    fn as_box(&self) -> affine::Loop {
        affine::Loop {
            var: self.var.clone(),
            lo: self.lo.map(i128::from),
            hi: self.hi.map(i128::from),
            unit_step: self.unit_step,
        }
    }

    /// Constant trip count, if both bounds are known.
    pub(crate) fn trip(&self) -> Option<i64> {
        match (self.lo, self.hi) {
            (Some(lo), Some(hi)) if self.unit_step && hi >= lo => Some(hi - lo + 1),
            _ => None,
        }
    }
}

/// Whole-nest dependence summary: the direction/distance matrix the
/// legality prover judges transformations against.
#[derive(Debug, Clone)]
pub struct NestSummary {
    /// Band loops, outermost first.
    pub(crate) loops: Vec<NestLoop>,
    /// Canonical dependence rows (lexicographically non-negative).
    pub vectors: Vec<DepVector>,
}

impl NestSummary {
    pub(crate) fn depth(&self) -> usize {
        self.loops.len()
    }

    pub fn vars(&self) -> Vec<String> {
        self.loops.iter().map(|l| l.var.clone()).collect()
    }
}

/// The maximal perfect band rooted at `d`: follows sole-statement `DO`
/// bodies downward. The last returned loop owns the (possibly
/// imperfect) innermost body.
pub fn band_of(d: &DoLoop) -> Vec<&DoLoop> {
    let mut band = vec![d];
    let mut cur = d;
    while let [only] = cur.body.0.as_slice() {
        match only.as_do() {
            Some(inner) => {
                band.push(inner);
                cur = inner;
            }
            None => break,
        }
    }
    band
}

/// Summarize `body`'s accesses against an explicit loop-order list.
/// This is the re-derivation entry point `polaris-verify` uses: it can
/// pass the band loops in **original** (pre-transformation) order —
/// reconstructed from a certificate — while reading the accesses from
/// the transformed IR, recovering the matrix the legality judgment must
/// be made over without trusting the pass that claimed it.
/// `reduction_root` scopes reduction validation (header permutations do
/// not change which statements a nest contains, so the transformed
/// outermost loop is a faithful scope).
pub fn summarize_band_with(
    loops: Vec<NestLoop>,
    body: &StmtList,
    reduction_root: &DoLoop,
    stats: &DdStats,
) -> NestSummary {
    summarize_view(loops, &IterView::of(body), reduction_root, stats)
}

/// [`summarize_band_with`] over a view of the band's innermost body the
/// caller already holds.
fn summarize_view(
    loops: Vec<NestLoop>,
    view: &IterView,
    reduction_root: &DoLoop,
    stats: &DdStats,
) -> NestSummary {
    // Only flagged accesses ask, so a body without any needs no scope.
    let validated = if view.refs.iter().any(|a| a.reduction.is_some()) {
        reduction::validated_reductions(&IterView::of(&reduction_root.body), &reduction_root.var)
    } else {
        Vec::new()
    };
    let relaxable = |f: &Ref, g: &Ref| -> bool {
        match (f.reduction, g.reduction) {
            (Some(a), Some(b)) if a == b => {
                validated.iter().any(|r| r.var == f.name && r.op == a)
            }
            _ => false,
        }
    };

    let mut vectors: Vec<DepVector> = Vec::new();
    let mut push = |row: DepVector| {
        if !vectors.contains(&row) {
            vectors.push(row);
        }
    };
    let n = loops.len();
    let band: Vec<affine::Loop> = loops.iter().map(NestLoop::as_box).collect();

    // Group by name; scalars get the classification rules, arrays the
    // pairwise affine test.
    let mut by_name: BTreeMap<&str, Vec<&Ref>> = BTreeMap::new();
    for a in &view.refs {
        by_name.entry(a.name.as_str()).or_default().push(a);
    }
    for (name, refs) in by_name {
        if !refs.iter().any(|a| a.is_write) {
            continue; // read-only: no dependence
        }
        if refs[0].is_scalar() {
            if loops.iter().any(|l| l.var == name) {
                continue; // a band variable is never assigned in the body
            }
            let first = refs.iter().min_by_key(|a| a.order).expect("nonempty");
            if first.is_write && !first.conditional && first.ctx.is_empty() {
                continue; // iteration-local: privatizable, no dependence
            }
            let relax = refs
                .iter()
                .all(|a| a.reduction.is_some() && a.reduction == refs[0].reduction)
                && refs
                    .first()
                    .map(|a| relaxable(a, a))
                    .unwrap_or(false);
            push(star_row(name, n, relax));
            continue;
        }
        // Arrays: every (write, access) pair contributes rows.
        for (i, j) in write_pairs(&refs, |a| a.is_write) {
            let (w, o) = (refs[i], refs[j]);
            for row in pair_rows(w, o, &band, relaxable(w, o), i == j, stats) {
                push(row);
            }
        }
    }
    NestSummary { loops, vectors }
}

// ---------------------------------------------------------------------
// Per-pair direction vectors
// ---------------------------------------------------------------------

/// Raw feasibility analysis for one access pair over the band: the
/// feasible direction leaves of `f`'s iteration relative to `g`'s
/// (`Lt` = f strictly earlier), or `None` when the pair falls outside
/// the affine fragment.
struct PairDirs {
    leaves: Option<Vec<Vec<Dir>>>,
    /// Exact constant `g − f` iteration difference per loop, where a
    /// unit-coefficient subscript dimension determines it.
    exact: Vec<Option<i64>>,
}

fn non_affine(n: usize) -> PairDirs {
    PairDirs { leaves: None, exact: vec![None; n] }
}

/// Compute the feasible direction leaves for accesses `f`, `g` over the
/// band loops via per-dimension Banerjee refinement: a direction vector
/// is feasible for the pair only if it is feasible in **every**
/// subscript dimension (all dimensions must hit the same element
/// simultaneously), so the per-dimension leaf sets are intersected.
fn analyze_pair(f: &Ref, g: &Ref, band: &[affine::Loop], stats: &DdStats) -> PairDirs {
    let n = band.len();
    // Out of the fragment: an access nested below the band, a rank
    // mismatch, or a band loop whose iteration order is not its value
    // order.
    if !f.ctx.is_empty()
        || !g.ctx.is_empty()
        || f.subs.len() != g.subs.len()
        || f.subs.is_empty()
        || !band.iter().all(|l| l.unit_step)
    {
        return non_affine(n);
    }
    let mut acc: Option<Vec<Vec<Dir>>> = None;
    let mut exact: Vec<Option<i64>> = vec![None; n];
    for dim in affine::pair_dims(f, g, band).1 {
        let Some(p) = dim else { return non_affine(n) };
        let leaves = banerjee::feasible_leaves(&banerjee::direction_vector_trials(
            p.c0, &p.common, &p.free, stats,
        ));
        acc = Some(match acc {
            None => leaves,
            Some(mut prev) => {
                prev.retain(|l| leaves.contains(l));
                prev
            }
        });
        // A dimension of the form `v_i + const` on both sides pins the
        // exact iteration difference in loop i: f's v_i + cf = g's
        // v_i + cg forces (g − f) at i to equal cf − cg = c0.
        let unit_in = |i: usize| {
            let want = |k: usize| if k == i { (1, 1) } else { (0, 0) };
            p.common.iter().enumerate().all(|(k, t)| (t.a, t.b) == want(k))
        };
        let (Some(i), Ok(c)) = ((0..n).find(|&i| unit_in(i)), i64::try_from(p.c0)) else {
            continue;
        };
        match exact[i] {
            Some(prev) if prev != c => {
                // Two dimensions demand different differences in
                // the same loop: the pair can never intersect.
                return PairDirs { leaves: Some(Vec::new()), exact };
            }
            _ => exact[i] = Some(c),
        }
    }
    // Prune leaves inconsistent with an exactly-determined difference
    // (Banerjee's interval reasoning can keep such leaves alive).
    let mut leaves = acc.unwrap_or_default();
    leaves.retain(|l| {
        (0..n).all(|i| match exact[i] {
            Some(c) if c > 0 => l[i] == Dir::Lt,
            Some(0) => l[i] == Dir::Eq,
            Some(_) => l[i] == Dir::Gt,
            None => true,
        })
    });
    PairDirs { leaves: Some(leaves), exact }
}

/// The row of a dependence nothing is known about: `*` in every loop.
fn star_row(array: &str, n: usize, relaxable: bool) -> DepVector {
    let (dirs, distance) = (vec![NestDir::Star; n], vec![None; n]);
    DepVector { array: array.to_string(), dirs, distance, relaxable }
}

fn to_nest_dir(d: Dir) -> NestDir {
    match d {
        Dir::Lt => NestDir::Lt,
        Dir::Eq => NestDir::Eq,
        Dir::Gt => NestDir::Gt,
        Dir::Any => NestDir::Star,
    }
}

/// Canonical dependence rows for one pair: each feasible leaf becomes a
/// lexicographically non-negative row (a leading-`>` leaf is the same
/// dependence with source and sink swapped, so it is flipped). A self
/// pair's all-`=` leaf is one access instance, not a dependence.
fn pair_rows(
    f: &Ref,
    g: &Ref,
    band: &[affine::Loop],
    relaxable: bool,
    self_pair: bool,
    stats: &DdStats,
) -> Vec<DepVector> {
    let pd = analyze_pair(f, g, band, stats);
    let Some(leaves) = pd.leaves else {
        return vec![star_row(&f.name, band.len(), relaxable)];
    };
    let mut rows = Vec::new();
    for leaf in leaves {
        if self_pair && leaf.iter().all(|d| *d == Dir::Eq) {
            continue;
        }
        let mut dirs: Vec<NestDir> = leaf.iter().map(|d| to_nest_dir(*d)).collect();
        let mut distance = pd.exact.clone();
        let flip = dirs.iter().find(|d| **d != NestDir::Eq) == Some(&NestDir::Gt);
        if flip {
            for d in &mut dirs {
                *d = match *d {
                    NestDir::Lt => NestDir::Gt,
                    NestDir::Gt => NestDir::Lt,
                    other => other,
                };
            }
            for c in &mut distance {
                *c = c.and_then(i64::checked_neg);
            }
        }
        let row = DepVector { array: f.name.clone(), dirs, distance, relaxable };
        if !rows.contains(&row) {
            rows.push(row);
        }
    }
    rows
}

// ---------------------------------------------------------------------
// The legality prover
// ---------------------------------------------------------------------

/// Is a direction vector lexicographically non-negative? (`*` may hide
/// a `>`, so it only passes behind an earlier `<`.)
pub(crate) fn lex_nonneg(dirs: &[NestDir]) -> bool {
    for d in dirs {
        match d {
            NestDir::Lt => return true,
            NestDir::Eq => {}
            NestDir::Gt | NestDir::Star => return false,
        }
    }
    true
}

/// Interchange legality: under the permutation, no non-relaxable
/// dependence vector may become lexicographically negative (that would
/// execute a sink before its source).
pub fn interchange_legal(vectors: &[DepVector], perm: &[usize]) -> Result<(), String> {
    for v in vectors.iter().filter(|v| !v.relaxable) {
        let permuted: Vec<NestDir> = perm.iter().map(|&i| v.dirs[i]).collect();
        if !lex_nonneg(&permuted) {
            return Err(format!("dependence {} inverted under permutation {perm:?}", v.render()));
        }
    }
    Ok(())
}

/// Rectangular-tiling legality for the band `band_start..depth`: the
/// band must be fully permutable — every non-relaxable vector is either
/// carried by a `<` before the band or has only `=`/`<` components
/// inside it (so intra-tile and inter-tile orders both respect it).
pub fn tiling_legal(vectors: &[DepVector], band_start: usize) -> Result<(), String> {
    for v in vectors.iter().filter(|v| !v.relaxable) {
        if v.dirs[..band_start].contains(&NestDir::Lt) {
            continue;
        }
        if v.dirs[band_start..].iter().all(|d| matches!(d, NestDir::Eq | NestDir::Lt)) {
            continue;
        }
        return Err(format!("dependence {} blocks tiling the band", v.render()));
    }
    Ok(())
}

/// Adjacent-loop fusion legality for two conformable loops (same
/// variable, bounds and step): fusion is illegal iff some cross-body
/// conflict can have the first body's access in a **later** iteration
/// than the second body's (`>` feasible) — after fusion that pair's
/// execution order inverts. On success returns the cross-body evidence
/// rows for the certificate.
pub fn fusion_legal(
    l1: &DoLoop,
    l2: &DoLoop,
    stats: &DdStats,
) -> Result<Vec<DepVector>, String> {
    let band = [NestLoop::of(l1).as_box()];
    let (a1, a2) = (IterView::of(&l1.body), IterView::of(&l2.body));
    let v1 = reduction::validated_reductions(&a1, &l1.var);
    let v2 = reduction::validated_reductions(&a2, &l2.var);
    let relaxable = |x: &Ref, y: &Ref| -> bool {
        match (x.reduction, y.reduction) {
            (Some(a), Some(b)) if a == b => {
                v1.iter().any(|r| r.var == x.name && r.op == a)
                    && v2.iter().any(|r| r.var == x.name && r.op == a)
            }
            _ => false,
        }
    };
    let mut evidence: Vec<DepVector> = Vec::new();
    let mut push = |row: DepVector| {
        if !evidence.contains(&row) {
            evidence.push(row);
        }
    };
    for x in &a1.refs {
        for y in &a2.refs {
            if x.name != y.name || (!x.is_write && !y.is_write) {
                continue;
            }
            if x.name == l1.var {
                continue; // the shared loop variable itself
            }
            let relax = relaxable(x, y);
            // A scalar has no subscripts, so its pair is never affine.
            let pd = analyze_pair(x, y, &band, stats);
            let Some(leaves) = pd.leaves else {
                if relax {
                    push(star_row(&x.name, 1, true));
                    continue;
                }
                return Err(if x.is_scalar() || y.is_scalar() {
                    format!("scalar {} conflicts across the fused bodies", x.name)
                } else {
                    format!("{}: non-affine cross-body access pair", x.name)
                });
            };
            if !relax && leaves.iter().any(|l| l[0] == Dir::Gt) {
                return Err(format!(
                    "{}: fusion-preventing `>` dependence between the bodies",
                    x.name
                ));
            }
            for leaf in leaves {
                push(DepVector {
                    array: x.name.clone(),
                    dirs: vec![to_nest_dir(leaf[0])],
                    distance: pd.exact.clone(),
                    relaxable: relax,
                });
            }
        }
    }
    Ok(evidence)
}

// ---------------------------------------------------------------------
// Locality cost model
// ---------------------------------------------------------------------

/// `polaris_machine::CostModel::default().memory`, which the conformance
/// tier checks (core cannot depend on the machine crate — the dependency
/// points the other way).
const MEMORY_CYCLES: u64 = 3;

/// Per-access, per-innermost-iteration locality penalty for a given
/// stride class under the machine's column-major layout: a
/// loop-invariant element costs nothing extra (register-resident), a
/// unit-stride walk costs one, and any column-crossing or non-unit
/// stride pays a memory-class penalty.
pub fn stride_penalty(first_dim_coeff: i64, varies_in_outer_dims: bool) -> u64 {
    if varies_in_outer_dims {
        8 * MEMORY_CYCLES
    } else if first_dim_coeff == 0 {
        0
    } else if first_dim_coeff.abs() == 1 {
        1
    } else {
        8 * MEMORY_CYCLES
    }
}

/// Coefficient of `var` in subscript `e`, when `e` is linear in it.
fn dim_coeff(e: &Expr, var: &str) -> Option<i64> {
    if !e.references(var) {
        return Some(0);
    }
    let dim = affine::Dim::of(e, std::slice::from_ref(&var.to_string()))?;
    i64::try_from(dim.coeffs[0]).ok()
}

fn access_penalty(a: &Ref, var: &str) -> u64 {
    if a.subs.is_empty() {
        return 0;
    }
    let varies_outer =
        a.subs[1..].iter().any(|s| dim_coeff(s, var).map(|c| c != 0).unwrap_or(true));
    match dim_coeff(&a.subs[0], var) {
        Some(c) => stride_penalty(c, varies_outer),
        None => stride_penalty(2, varies_outer), // nonlinear: non-unit class
    }
}

/// Locality score of one loop ordering (`vars` outermost first): lower
/// is better. The innermost level dominates (×100), the next level
/// tie-breaks (×10) — the innermost stride is what the cache sees.
fn permutation_score(accesses: &[Ref], vars: &[String]) -> u64 {
    let n = vars.len();
    let mut score = 0u64;
    for (lvl, var) in vars.iter().enumerate() {
        let weight = match n - 1 - lvl {
            0 => 100,
            1 => 10,
            _ => 1,
        };
        let level: u64 = accesses.iter().map(|a| access_penalty(a, var)).sum();
        score += weight * level;
    }
    score
}

/// Is the band rectangular — does no bound of a band loop read a band
/// variable? Interchange permutes headers verbatim, so a bound that reads
/// another band variable (a triangular or trapezoidal nest) would end up
/// evaluated outside the loop that defines that variable.
pub fn rectangular_band(band: &[&DoLoop]) -> Result<(), String> {
    for l in band {
        for bound in [Some(&l.init), Some(&l.limit), l.step.as_ref()].into_iter().flatten() {
            if let Some(read) = band.iter().find(|other| bound.references(&other.var)) {
                return Err(format!("band bound reads band variable `{}`", read.var));
            }
        }
    }
    Ok(())
}

/// The cheapest **legal** loop order strictly better than the current
/// one for the band rooted at `root`: `(perm, summary, identity_score,
/// best_score)`, or `None` when the nest is already locality-optimal
/// among its legal orders. The syntactic gates come first — a band too
/// deep or shallow to enumerate, or not rectangular, is never summarised,
/// and neither is one no order of which scores below the identity — and
/// every candidate judged is entered in `nr`. With `force_illegal`
/// (fault injection) the rectangular gate is skipped, every cheaper
/// order is judged, and the first **rejected** one — otherwise any other
/// order — is returned, so the downstream refusal path has something to
/// refuse. The interchange stage's selection and the `nest-locality`
/// lint are the two callers.
pub fn better_legal_order(
    unit_name: &str,
    root: &DoLoop,
    stats: &DdStats,
    force_illegal: bool,
    nr: &mut NestReport,
) -> Option<(Vec<usize>, NestSummary, u64, u64)> {
    let band = band_of(root);
    let depth = band.len();
    if !(2..=MAX_PERM_DEPTH).contains(&depth)
        || (!force_illegal && rectangular_band(&band).is_err())
    {
        return None;
    }
    let view = IterView::of(&band[depth - 1].body);
    let score = |p: &[usize]| {
        permutation_score(&view.refs, &p.iter().map(|&i| band[i].var.clone()).collect::<Vec<_>>())
    };
    let identity: Vec<usize> = (0..depth).collect();
    let identity_score = score(&identity);
    let mut orders: Vec<(u64, Vec<usize>)> = permutations(depth)
        .into_iter()
        .filter(|p| *p != identity)
        .map(|p| (score(&p), p))
        .collect();
    orders.sort();
    // The summary costs up to 3ⁿ Banerjee trials per pair and dimension:
    // build it only when some order scores below the identity.
    if !force_illegal && orders.first().is_none_or(|(s, _)| *s >= identity_score) {
        return None;
    }
    let loops = band.iter().map(|l| NestLoop::of(l)).collect();
    let summary = summarize_view(loops, &view, root, stats);
    let mut chosen = None;
    for order in orders.iter().take_while(|(s, _)| *s < identity_score) {
        let verdict = interchange_legal(&summary.vectors, &order.1);
        if nr.judge(unit_name, &root.label, "interchange", verdict, force_illegal).is_some() {
            chosen = chosen.or(Some(order));
            if !force_illegal {
                break;
            }
        }
    }
    if force_illegal {
        chosen = chosen.or(orders.first());
    }
    let (best_score, perm) = chosen?.clone();
    Some((perm, summary, identity_score, best_score))
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn rec(prefix: &mut Vec<usize>, rest: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if rest.is_empty() {
            out.push(prefix.clone());
            return;
        }
        for i in 0..rest.len() {
            let x = rest.remove(i);
            prefix.push(x);
            rec(prefix, rest, out);
            prefix.pop();
            rest.insert(i, x);
        }
    }
    let mut out = Vec::new();
    rec(&mut Vec::new(), &mut (0..n).collect(), &mut out);
    out
}

// ---------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------

/// What the nest-transformation stages did, aggregated across units:
/// the candidates judged are the rejections plus the applied certs.
#[derive(Debug, Clone, Default)]
pub struct NestReport {
    /// One certificate per applied transformation.
    pub certs: Vec<LegalityCert>,
    /// Human-readable reasons for rejected candidates.
    pub rejections: Vec<String>,
}

impl NestReport {
    /// Enter the prover's verdict on one `stage` candidate at
    /// `unit/label` and say whether to apply it, with its evidence: a
    /// legal candidate — or, under `force_illegal` (the fault that feeds
    /// the re-prover a lie), only a rejected one, with none.
    pub(crate) fn judge<T: Default>(
        &mut self,
        unit: &str,
        label: &str,
        stage: &str,
        verdict: Result<T, String>,
        force_illegal: bool,
    ) -> Option<T> {
        match verdict {
            Ok(evidence) => (!force_illegal).then_some(evidence),
            Err(reason) => {
                self.rejections.push(format!("{unit}/{label}: {stage}: {reason}"));
                force_illegal.then(T::default)
            }
        }
    }
}

// ---------------------------------------------------------------------
// Interchange
// ---------------------------------------------------------------------

/// Permute the band's loop headers in place; bodies stay put, so the
/// statement text is untouched and only iteration order changes. Labels
/// and [`LoopId`]s travel with their header — the loop's identity
/// follows its variable.
fn apply_interchange(root: &mut DoLoop, perm: &[usize]) {
    let mut headers = Vec::with_capacity(perm.len());
    let mut cur = &mut *root;
    loop {
        headers.push(Some((
            std::mem::take(&mut cur.var),
            std::mem::replace(&mut cur.init, Expr::int(0)),
            std::mem::replace(&mut cur.limit, Expr::int(0)),
            cur.step.take(),
            std::mem::take(&mut cur.label),
            cur.loop_id,
        )));
        if headers.len() == perm.len() {
            break;
        }
        cur = cur.body.0[0].as_do_mut().expect("perfect band");
    }
    let mut cur = root;
    for (lvl, &src) in perm.iter().enumerate() {
        (cur.var, cur.init, cur.limit, cur.step, cur.label, cur.loop_id) =
            headers[src].take().expect("a permutation");
        if lvl + 1 < perm.len() {
            cur = cur.body.0[0].as_do_mut().expect("perfect band");
        }
    }
}

/// Run interchange selection ([`better_legal_order`]) over every nest of
/// `unit`. With `force_illegal` (fault injection) the best **rejected**
/// candidate is applied anyway, cert and all — the verify re-prover must
/// catch it.
pub(crate) fn interchange_unit(
    unit: &mut ProgramUnit,
    stats: &DdStats,
    force_illegal: bool,
    nr: &mut NestReport,
) {
    let unit_name = unit.name.clone();
    let mut plans: BTreeMap<LoopId, (Vec<usize>, NestSummary)> = BTreeMap::new();
    for_each_nest_root(&unit.body, &mut |d, _| {
        if let Some((perm, summary, ..)) =
            better_legal_order(&unit_name, d, stats, force_illegal, nr)
        {
            plans.insert(d.loop_id, (perm, summary));
        }
    });
    apply_interchange_plans(unit, plans, nr);
}

fn apply_interchange_plans(
    unit: &mut ProgramUnit,
    mut plans: BTreeMap<LoopId, (Vec<usize>, NestSummary)>,
    nr: &mut NestReport,
) {
    let unit_name = unit.name.clone();
    unit.body.walk_mut(&mut |s| {
        let Some(d) = s.as_do_mut() else { return };
        let Some((perm, summary)) = plans.remove(&d.loop_id) else { return };
        apply_interchange(d, &perm);
        nr.certs.push(LegalityCert {
            unit: unit_name.clone(),
            loop_id: d.loop_id,
            label: d.label.clone(),
            loop_vars: summary.vars(),
            vectors: summary.vectors,
            kind: CertKind::Interchange { perm },
        });
    });
}

/// Visit the root loop of every band in the list, with its source
/// line: each top-level `DO`, then (skipping the band's interior) the
/// bands nested under its innermost body, recursively. `IF` arms are
/// descended through.
pub fn for_each_nest_root(list: &StmtList, f: &mut dyn FnMut(&DoLoop, u32)) {
    for s in list.iter() {
        match &s.kind {
            StmtKind::Do(d) => {
                f(d, s.line);
                let innermost = *band_of(d).last().expect("band");
                for_each_nest_root(&innermost.body, f);
            }
            StmtKind::IfBlock { arms, else_body } => {
                for arm in arms {
                    for_each_nest_root(&arm.body, f);
                }
                for_each_nest_root(else_body, f);
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// Tiling
// ---------------------------------------------------------------------

struct TilePlan {
    depth: usize,
    tile_vars: Vec<String>,
    /// Fresh ids: `[0..depth]` become the tile loops' ids,
    /// `[depth..2*depth]` the point-loop statement wrappers.
    fresh: Vec<StmtId>,
    summary: NestSummary,
}

/// Does the nest body re-read some array at two constant offsets of the
/// same subscript form (stencil reuse — the pattern tiling pays off on)?
fn has_stencil_reuse(accesses: &[Ref], loops: &[NestLoop]) -> bool {
    let vars: Vec<String> = loops.iter().map(|l| l.var.clone()).collect();
    // Per dimension the band coefficients, and the constant offsets.
    let shape = |a: &Ref| -> Option<(Vec<Vec<i128>>, Vec<i128>)> {
        let dims: Vec<affine::Dim> =
            a.subs.iter().map(|s| affine::Dim::of(s, &vars)).collect::<Option<_>>()?;
        let consts = dims.iter().map(|d| d.constant()).collect::<Option<_>>()?;
        Some((dims.into_iter().map(|d| d.coeffs).collect(), consts))
    };
    let reads: Vec<_> = accesses.iter().filter(|a| !a.is_write && !a.is_scalar()).collect();
    for (i, a) in reads.iter().enumerate() {
        for b in reads.iter().skip(i + 1) {
            if a.name != b.name {
                continue;
            }
            if let (Some((ca, ka)), Some((cb, kb))) = (shape(a), shape(b)) {
                if ca == cb && ka != kb {
                    return true;
                }
            }
        }
    }
    false
}

/// Run rectangular tiling over every nest of `unit`: a nest is a
/// candidate when its band is 2 to `MAX_PERM_DEPTH` deep, its body shows
/// stencil reuse and every band loop has a constant trip count ≥
/// [`TILE_MIN_TRIP`] divisible by [`TILE`] (so the point-loop bounds
/// stay affine with no remainder guard).
pub(crate) fn tile_unit(
    unit: &mut ProgramUnit,
    stats: &DdStats,
    force_illegal: bool,
    nr: &mut NestReport,
) {
    let unit_name = unit.name.clone();
    // Plan immutably first: id reservation and symbol synthesis need
    // `&mut unit` while the scan holds `&unit.body`.
    let mut roots: Vec<(LoopId, NestSummary)> = Vec::new();
    for_each_nest_root(&unit.body, &mut |d, _| {
        // The syntactic gates come before the summary they guard.
        let band = band_of(d);
        if !(2..=MAX_PERM_DEPTH).contains(&band.len()) {
            return;
        }
        let loops: Vec<NestLoop> = band.iter().map(|l| NestLoop::of(l)).collect();
        let trips_ok = loops.iter().all(|l| {
            l.trip().map(|t| t >= TILE_MIN_TRIP && t % TILE == 0).unwrap_or(false)
        });
        if !trips_ok {
            return;
        }
        let view = IterView::of(&band[band.len() - 1].body);
        if !has_stencil_reuse(&view.refs, &loops) {
            return;
        }
        let summary = summarize_view(loops, &view, d, stats);
        let verdict = tiling_legal(&summary.vectors, 0);
        if nr.judge(&unit_name, &d.label, "tile", verdict, force_illegal).is_some() {
            roots.push((d.loop_id, summary));
        }
    });
    let mut plans: BTreeMap<LoopId, TilePlan> = BTreeMap::new();
    for (root_id, summary) in roots {
        let depth = summary.depth();
        let mut tile_vars = Vec::with_capacity(depth);
        for l in &summary.loops {
            let name = unit.symbols.unique_name(&format!("{}T", l.var));
            unit.symbols.insert(Symbol::scalar(name.clone(), DataType::Integer));
            tile_vars.push(name);
        }
        let fresh: Vec<StmtId> = (0..2 * depth).map(|_| unit.fresh_stmt_id()).collect();
        plans.insert(root_id, TilePlan { depth, tile_vars, fresh, summary });
    }
    apply_tile_plans(unit, plans, nr);
}

fn apply_tile_plans(
    unit: &mut ProgramUnit,
    mut plans: BTreeMap<LoopId, TilePlan>,
    nr: &mut NestReport,
) {
    let unit_name = unit.name.clone();
    unit.body.walk_mut(&mut |s| {
        let root_id = match s.as_do() {
            Some(d) => d.loop_id,
            None => return,
        };
        let Some(plan) = plans.remove(&root_id) else { return };
        let kind = std::mem::replace(&mut s.kind, StmtKind::Continue);
        let StmtKind::Do(root) = kind else { unreachable!("checked above") };
        s.kind = StmtKind::Do(tile_band(*root, &plan));
        let d = s.as_do().expect("just built");
        nr.certs.push(LegalityCert {
            unit: unit_name.clone(),
            loop_id: d.loop_id,
            label: d.label.clone(),
            loop_vars: plan.summary.vars(),
            vectors: plan.summary.vectors.clone(),
            kind: CertKind::Tile {
                band: (0..plan.depth).collect(),
                sizes: vec![TILE; plan.depth],
            },
        });
    });
}

/// Rebuild one band as tile loops over point loops:
/// `DO I = lo, hi` … becomes `DO IT = lo, hi, 8` over `DO I = IT, IT+7`
/// for every band level, tile loops outermost (in the band's order),
/// then the original loops as point loops around the untouched body.
fn tile_band(root: DoLoop, plan: &TilePlan) -> Box<DoLoop> {
    let depth = plan.depth;
    // Peel the band into owned loops, innermost body staying with the
    // last one.
    let mut band: Vec<DoLoop> = Vec::with_capacity(depth);
    let mut cur = root;
    loop {
        if band.len() + 1 < depth {
            let inner_stmt = cur.body.0.pop().expect("perfect band");
            let StmtKind::Do(inner) = inner_stmt.kind else { unreachable!("perfect band") };
            band.push(cur);
            cur = *inner;
        } else {
            band.push(cur);
            break;
        }
    }
    // Point loops: the original loops re-bounded to their tile.
    for (lvl, b) in band.iter_mut().enumerate() {
        let tv = &plan.tile_vars[lvl];
        b.init = Expr::var(tv);
        b.limit = Expr::add(Expr::var(tv), Expr::int(TILE - 1));
        b.step = None;
    }
    // Reassemble the point nest innermost-out.
    let mut point = band.pop().expect("band is nonempty");
    let mut lvl = band.len();
    while let Some(mut outer) = band.pop() {
        outer.body = StmtList(vec![Stmt::new(plan.fresh[depth + lvl], 0, StmtKind::Do(Box::new(point)))]);
        point = outer;
        lvl -= 1;
    }
    // Wrap in the tile nest, innermost-out. The tile loops get the
    // reserved fresh ids; labels advertise their origin.
    let headers = plan.summary.loops.clone();
    let mut body = StmtList(vec![Stmt::new(plan.fresh[depth], 0, StmtKind::Do(Box::new(point)))]);
    for lvl in (0..depth).rev() {
        let h = &headers[lvl];
        let tile = DoLoop {
            var: plan.tile_vars[lvl].clone(),
            init: Expr::int(h.lo.expect("const bounds checked")),
            limit: Expr::int(h.hi.expect("const bounds checked")),
            step: Some(Expr::int(TILE)),
            body,
            par: Default::default(),
            label: format!("{}_tile", h.label),
            loop_id: LoopId(plan.fresh[lvl].0),
        };
        if lvl == 0 {
            return Box::new(tile);
        }
        body = StmtList(vec![Stmt::new(plan.fresh[lvl], 0, StmtKind::Do(Box::new(tile)))]);
    }
    unreachable!("depth >= 2")
}

// ---------------------------------------------------------------------
// Fusion
// ---------------------------------------------------------------------

/// Are two adjacent loops conformable for fusion? Same variable,
/// structurally equal bounds and step, constant positive step, and both
/// bodies flat (no nested `DO` — fusing flat loops is the classic
/// array-contraction case and never disturbs a band another stage
/// built).
fn fusable_headers(l1: &DoLoop, l2: &DoLoop) -> bool {
    let flat = |d: &DoLoop| !d.body.is_empty() && d.body.iter().all(|s| s.as_do().is_none());
    l1.var == l2.var
        && l1.init == l2.init
        && l1.limit == l2.limit
        && l1.step_expr().simplified() == l2.step_expr().simplified()
        && l1.step_is_positive_const()
        && !l1.body.is_empty()
        && !l2.body.is_empty()
        && flat(l1)
        && flat(l2)
}

/// Do the two bodies touch a common array (the profitability gate:
/// fusion without shared data only grows the loop body)? Sharing an
/// array that some access uses **inside a subscript** disqualifies the
/// pair instead: fusing an index-array fill into its consumer would
/// destroy the precomputed-contents pattern the `idxprop` analysis
/// proves properties from — a pessimization even when legal.
fn bodies_share_array(l1: &DoLoop, l2: &DoLoop) -> bool {
    let (v1, v2) = (IterView::of(&l1.body), IterView::of(&l2.body));
    let arrays = |v: &IterView| -> Vec<String> {
        v.refs.iter().filter(|a| !a.is_scalar()).map(|a| a.name.clone()).collect()
    };
    let a1 = arrays(&v1);
    let shared: Vec<String> = arrays(&v2).into_iter().filter(|n| a1.contains(n)).collect();
    if shared.is_empty() {
        return false;
    }
    let feeds_subscripts = |v: &IterView| {
        v.refs.iter().any(|a| a.subs.iter().any(|s| shared.iter().any(|n| s.references(n))))
    };
    !feeds_subscripts(&v1) && !feeds_subscripts(&v2)
}

/// Fuse adjacent conformable loops throughout `unit`, gated by the
/// prover. Fusion keeps the first loop's identity; the second loop's
/// statements are spliced onto the end of the first body and the
/// boundary statement id is recorded in the cert so the verify
/// re-prover can re-split and re-judge.
pub(crate) fn fuse_unit(
    unit: &mut ProgramUnit,
    stats: &DdStats,
    force_illegal: bool,
    nr: &mut NestReport,
) {
    let unit_name = unit.name.clone();
    fn walk_lists(
        list: &mut StmtList,
        unit_name: &str,
        stats: &DdStats,
        force_illegal: bool,
        nr: &mut NestReport,
    ) {
        // Depth first, so inner fusions happen before the outer scan.
        for s in list.iter_mut() {
            match &mut s.kind {
                StmtKind::Do(d) => walk_lists(&mut d.body, unit_name, stats, force_illegal, nr),
                StmtKind::IfBlock { arms, else_body } => {
                    for arm in arms {
                        walk_lists(&mut arm.body, unit_name, stats, force_illegal, nr);
                    }
                    walk_lists(else_body, unit_name, stats, force_illegal, nr);
                }
                _ => {}
            }
        }
        let mut i = 0;
        while i + 1 < list.0.len() {
            let evidence = match (list.0[i].as_do(), list.0[i + 1].as_do()) {
                (Some(l1), Some(l2)) if fusable_headers(l1, l2) && bodies_share_array(l1, l2) => {
                    let verdict = fusion_legal(l1, l2, stats);
                    nr.judge(unit_name, &l1.label, "fuse", verdict, force_illegal)
                }
                _ => None,
            };
            let Some(evidence) = evidence else {
                i += 1;
                continue;
            };
            let second = list.0.remove(i + 1);
            let StmtKind::Do(second) = second.kind else { unreachable!("checked above") };
            let first = list.0[i].as_do_mut().expect("checked above");
            let boundary = second.body.0.first().expect("nonempty body").id;
            let fused_id = second.loop_id;
            first.body.0.extend(second.body.0);
            nr.certs.push(LegalityCert {
                unit: unit_name.to_string(),
                loop_id: first.loop_id,
                label: first.label.clone(),
                loop_vars: vec![first.var.clone()],
                vectors: evidence,
                kind: CertKind::Fuse { fused_loop: fused_id, boundary: boundary.0 },
            });
            // Stay at `i`: the fused loop may fuse with the next one.
        }
    }
    walk_lists(&mut unit.body, &unit_name, stats, force_illegal, nr);
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_ir::parse;

    fn summarize(src: &str) -> (polaris_ir::Program, NestSummary) {
        let mut p = parse(src).unwrap();
        crate::reduction::flag_reductions(&mut p);
        let stats = DdStats::new();
        let band = band_of(p.units[0].body.loops()[0]);
        let loops = band.iter().map(|l| NestLoop::of(l)).collect();
        let body = &band.last().unwrap().body;
        let s = summarize_band_with(loops, body, band[0], &stats);
        (p, s)
    }

    /// How many transformations of `stage` the report applied.
    fn applied(nr: &NestReport, stage: &str) -> usize {
        nr.certs.iter().filter(|c| c.stage() == stage).count()
    }

    #[test]
    fn stencil_nest_has_no_blocking_vectors() {
        let src = "program t\nreal a(34,34), b(34,34)\n\
                   do j = 2, 33\n  do i = 2, 33\n\
                   \x20   b(i,j) = a(i,j) + a(i-1,j) + a(i+1,j) + a(i,j-1) + a(i,j+1)\n\
                   end do\nend do\nend\n";
        let (_, s) = summarize(src);
        assert_eq!(s.depth(), 2);
        // B is only written, A only read: the matrix holds at most
        // loop-independent rows, and every transformation is legal.
        assert!(s.vectors.iter().all(|v| v.dirs.iter().all(|d| *d == NestDir::Eq)), "{:?}", s.vectors);
        assert!(interchange_legal(&s.vectors, &[1, 0]).is_ok());
        assert!(tiling_legal(&s.vectors, 0).is_ok());
    }

    #[test]
    fn flow_recurrence_blocks_interchange_with_lt_gt_vector() {
        // a(i,j) = a(i-1,j+1): dependence vector (<, >) — interchange
        // would invert it.
        let src = "program t\nreal a(64,64)\n\
                   do i = 2, 63\n  do j = 2, 63\n\
                   \x20   a(i,j) = a(i-1,j+1) + 1.0\n\
                   end do\nend do\nend\n";
        let (_, s) = summarize(src);
        let row = s
            .vectors
            .iter()
            .find(|v| v.dirs == vec![NestDir::Lt, NestDir::Gt])
            .unwrap_or_else(|| panic!("no (<,>) row: {:?}", s.vectors));
        assert_eq!(row.distance, vec![Some(1), Some(-1)]);
        assert!(!row.relaxable);
        assert!(interchange_legal(&s.vectors, &[1, 0]).is_err());
        assert!(tiling_legal(&s.vectors, 0).is_err());
    }

    #[test]
    fn huge_skew_under_symbolic_bounds_keeps_its_lt_gt_vector() {
        // a(i,j) = a(i-1,j+40000000) with unknown trip counts: still a
        // (<, >) dependence, whatever the distance.
        let src = "program t\nreal a(1000,50000000)\ninteger ia(10)\nn = ia(1)\nm = ia(2)\n\
                   do i = 2, n\n  do j = 1, m\n\
                   \x20   a(i,j) = a(i-1,j+40000000) + 1.0\n\
                   end do\nend do\nend\n";
        let (mut p, s) = summarize(src);
        let row = s
            .vectors
            .iter()
            .find(|v| v.dirs == vec![NestDir::Lt, NestDir::Gt])
            .unwrap_or_else(|| panic!("no (<,>) row: {:?}", s.vectors));
        assert_eq!(row.distance, vec![Some(1), Some(-40_000_000)]);
        assert!(interchange_legal(&s.vectors, &[1, 0]).is_err());
        let mut nr = NestReport::default();
        interchange_unit(&mut p.units[0], &DdStats::new(), false, &mut nr);
        assert_eq!((nr.certs.len(), nr.rejections.len()), (0, 1), "{nr:?}");
    }

    #[test]
    fn a_private_scalar_left_in_a_subscript_gives_the_all_star_row() {
        // JT = 2K-J, so this is a(i,j+2k) = a(i-1,j+2k+1): a (<, >)
        // dependence. `JT = JT+K` is not substituted, and treating JT as a
        // fixed symbol made 2J = 2J'+1 unsolvable: an empty matrix.
        let src = "program t\nreal a(64,200)\ninteger ia(4), k, jt\nk = ia(1)\n\
                   do i = 2, 64\n  do j = 1, 64\n\
                   \x20   jt = k - j\n    jt = jt + k\n\
                   \x20   a(i, jt + 2*j) = a(i-1, jt + 2*j + 1) + 1.0\n\
                   end do\nend do\nend\n";
        let (mut p, s) = summarize(src);
        let row = s.vectors.iter().find(|v| v.array == "A").expect("a row on A");
        assert!(row.dirs.iter().all(|d| *d == NestDir::Star) && !row.relaxable, "{row:?}");
        assert!(s.vectors.iter().all(|v| v.array != "JT"), "JT itself is iteration-local");
        assert!(interchange_legal(&s.vectors, &[1, 0]).is_err());
        assert!(tiling_legal(&s.vectors, 0).is_err());
        let mut nr = NestReport::default();
        interchange_unit(&mut p.units[0], &DdStats::new(), false, &mut nr);
        tile_unit(&mut p.units[0], &DdStats::new(), false, &mut nr);
        assert!(nr.certs.is_empty(), "{nr:?}");
        assert_eq!(p.units[0].body.loops()[0].var, "I", "nest must be untouched");
        // The resolvable twin (JT = K-J alone) is a(i,k+j) = a(i-1,k+j+1).
        let (_, s) = summarize(&src.replace("    jt = jt + k\n", ""));
        assert!(s.vectors.iter().any(|v| v.dirs == vec![NestDir::Lt, NestDir::Gt]), "{:?}", s.vectors);
    }

    #[test]
    fn lt_eq_recurrence_permits_interchange_but_not_band_inversion() {
        // a(i,j) = a(i-1,j): vector (<, =); swapping to (=, <) stays
        // lexicographically positive, so interchange is legal, and the
        // band is fully permutable so tiling is too.
        let src = "program t\nreal a(64,64)\n\
                   do i = 2, 63\n  do j = 1, 64\n\
                   \x20   a(i,j) = a(i-1,j) + 1.0\n\
                   end do\nend do\nend\n";
        let (_, s) = summarize(src);
        assert!(s.vectors.iter().any(|v| v.dirs == vec![NestDir::Lt, NestDir::Eq]), "{:?}", s.vectors);
        assert!(interchange_legal(&s.vectors, &[1, 0]).is_ok());
        assert!(tiling_legal(&s.vectors, 0).is_ok());
    }

    #[test]
    fn validated_reduction_rows_are_relaxable_and_unblock_reordering() {
        let src = "program t\nreal a(32,32)\ns = 0.0\n\
                   do i = 1, 32\n  do j = 1, 32\n\
                   \x20   s = s + a(i,j)\n\
                   end do\nend do\nprint *, s\nend\n";
        let (_, s) = summarize(src);
        let row = s.vectors.iter().find(|v| v.array == "S").expect("S row");
        assert!(row.relaxable, "{row:?}");
        assert!(interchange_legal(&s.vectors, &[1, 0]).is_ok());
    }

    #[test]
    fn unvalidated_scalar_write_blocks_everything() {
        // t carries a value across iterations (read before write).
        let src = "program t\nreal a(32,32)\nt = 0.0\n\
                   do i = 1, 32\n  do j = 1, 32\n\
                   \x20   a(i,j) = t\n\
                   \x20   t = a(i,j) + 1.0\n\
                   end do\nend do\nprint *, t\nend\n";
        let (_, s) = summarize(src);
        let row = s.vectors.iter().find(|v| v.array == "T").expect("T row");
        assert!(!row.relaxable);
        assert!(row.dirs.iter().all(|d| *d == NestDir::Star));
        assert!(interchange_legal(&s.vectors, &[1, 0]).is_err());
        assert!(tiling_legal(&s.vectors, 0).is_err());
    }

    #[test]
    fn iteration_local_scalar_is_invisible() {
        let src = "program t\nreal a(32,32), b(32,32)\n\
                   do i = 1, 32\n  do j = 1, 32\n\
                   \x20   t = a(i,j) * 2.0\n\
                   \x20   b(i,j) = t + 1.0\n\
                   end do\nend do\nend\n";
        let (_, s) = summarize(src);
        assert!(s.vectors.iter().all(|v| v.array != "T"), "{:?}", s.vectors);
        assert!(interchange_legal(&s.vectors, &[1, 0]).is_ok());
    }

    #[test]
    fn mmt_interchange_is_chosen_and_applied() {
        let src = "program mmt\nreal a(32,32), b(32,32), c(32,32)\nreal s\ns = 0.0\n\
                   do k = 1, 32\n  do i = 1, 32\n    do j = 1, 32\n\
                   \x20     c(i,j) = c(i,j) + a(k,i) * b(k,j)\n\
                   \x20     s = s + a(k,i)\n\
                   end do\nend do\nend do\nprint *, s\nend\n";
        let mut p = parse(src).unwrap();
        crate::reduction::flag_reductions(&mut p);
        let stats = DdStats::new();
        let mut nr = NestReport::default();
        interchange_unit(&mut p.units[0], &stats, false, &mut nr);
        assert_eq!(nr.certs.len(), 1, "{:?}", nr.rejections);
        assert_eq!(applied(&nr, "interchange"), 1);
        let cert = &nr.certs[0];
        assert_eq!(cert.loop_vars, vec!["K", "I", "J"]);
        let CertKind::Interchange { perm } = &cert.kind else { panic!("{:?}", cert.kind) };
        assert_eq!(perm.as_slice(), &[2, 1, 0], "expected (J,I,K) order");
        // The transformed nest reads J outermost, K innermost.
        let outer = p.units[0].body.loops()[0];
        assert_eq!(outer.var, "J");
        let band = band_of(outer);
        let vars: Vec<&str> = band.iter().map(|d| d.var.as_str()).collect();
        assert_eq!(vars, vec!["J", "I", "K"]);
        polaris_ir::validate::validate_program(&p).unwrap();
        // The relaxable evidence is present: the scalar reduction S.
        assert!(cert.vectors.iter().any(|v| v.array == "S" && v.relaxable), "{:?}", cert.vectors);
    }

    #[test]
    fn an_optimal_band_is_scored_but_never_summarised() {
        // I innermost walks `a` and `b` with unit stride: no order beats
        // the identity, so the written array's pairs are never tested.
        let src = "program t\nreal a(64,64), b(64,64)\n\
                   do j = 2, 63\n  do i = 2, 63\n\
                   \x20   a(i,j) = a(i-1,j) + b(i,j)\n\
                   end do\nend do\nend\n";
        let p = parse(src).unwrap();
        let stats = DdStats::new();
        let mut nr = NestReport::default();
        let root = p.units[0].body.loops()[0];
        assert!(better_legal_order("T", root, &stats, false, &mut nr).is_none());
        assert_eq!(stats.banerjee_vectors.get(), 0, "no summary was built");
        // Forced, the same band is summarised: the trials above were saved.
        assert!(better_legal_order("T", root, &stats, true, &mut nr).is_some());
        assert!(stats.banerjee_vectors.get() > 0);
    }

    #[test]
    fn illegal_interchange_is_rejected_not_applied() {
        let src = "program t\nreal a(64,64)\n\
                   do j = 2, 63\n  do i = 2, 63\n\
                   \x20   a(i,j) = a(i+1,j-1) + 1.0\n\
                   end do\nend do\nend\n";
        // Identity (j,i) has unit innermost stride... make the better
        // order illegal: accesses favor innermost i already, so force
        // the cost model's hand by writing the loop i-outer.
        let src_bad = src.replace("do j = 2, 63\n  do i = 2, 63", "do i = 2, 63\n  do j = 2, 63");
        let mut p = parse(&src_bad).unwrap();
        let stats = DdStats::new();
        let mut nr = NestReport::default();
        interchange_unit(&mut p.units[0], &stats, false, &mut nr);
        // The profitable swap (i innermost) inverts the (<,>) dependence:
        // judged, rejected, not applied.
        assert!(nr.certs.is_empty(), "{nr:?}");
        assert!(!nr.rejections.is_empty(), "{nr:?}");
        assert!(nr.rejections[0].contains("interchange"), "{:?}", nr.rejections);
        let outer = p.units[0].body.loops()[0];
        assert_eq!(outer.var, "I", "nest must be untouched");
    }

    #[test]
    fn a_write_meets_itself_across_iterations_and_blocks_interchange() {
        // A(I+J) is written again one J later and one I earlier: the
        // write's own (<, >) output dependence. Swapped, the last value
        // written to A(5) would be B(1,4), not B(4,1).
        let src = "program t\nreal a(40), b(20,20)\n\
                   do j = 1, 20\n  do i = 1, 20\n\
                   \x20   a(i+j) = b(j,i)\n\
                   end do\nend do\nend\n";
        let mut p = parse(src).unwrap();
        let mut nr = NestReport::default();
        interchange_unit(&mut p.units[0], &DdStats::new(), false, &mut nr);
        assert!(nr.certs.is_empty(), "{nr:?}");
        assert!(nr.rejections.iter().any(|r| r.contains("A: (<, >)")), "{:?}", nr.rejections);
        assert_eq!(p.units[0].body.loops()[0].var, "J", "nest must be untouched");
    }

    #[test]
    fn a_write_that_meets_itself_across_iterations_blocks_tiling() {
        let src = "program t\nreal a(80), b(41,40)\n\
                   do j = 1, 40\n  do i = 1, 40\n\
                   \x20   a(i+j) = b(i,j) + b(i+1,j)\n\
                   end do\nend do\nend\n";
        let mut p = parse(src).unwrap();
        let mut nr = NestReport::default();
        tile_unit(&mut p.units[0], &DdStats::new(), false, &mut nr);
        assert!(nr.certs.is_empty(), "{nr:?}");
        assert!(nr.rejections.iter().any(|r| r.contains("A: (<, >)")), "{:?}", nr.rejections);
        // A write that meets itself only in its own iteration adds no row.
        let (_, s) = summarize(&src.replace("a(i+j) =", "a(i+40*j) ="));
        assert!(s.vectors.is_empty(), "{:?}", s.vectors);
    }

    #[test]
    fn forced_illegal_interchange_is_applied_with_a_cert() {
        let src = "program t\nreal a(64,64)\n\
                   do i = 2, 63\n  do j = 2, 63\n\
                   \x20   a(i,j) = a(i+1,j-1) + 1.0\n\
                   end do\nend do\nend\n";
        let mut p = parse(src).unwrap();
        let stats = DdStats::new();
        let mut nr = NestReport::default();
        interchange_unit(&mut p.units[0], &stats, true, &mut nr);
        assert_eq!(applied(&nr, "interchange"), 1, "force must apply the rejected candidate");
        assert_eq!(p.units[0].body.loops()[0].var, "J");
        polaris_ir::validate::validate_program(&p).unwrap();
    }

    #[test]
    fn stencil_is_tiled_with_affine_point_bounds() {
        let src = "program t\nreal a(34,34), b(34,34)\n\
                   do j = 2, 33\n  do i = 2, 33\n\
                   \x20   b(i,j) = a(i,j) + a(i-1,j) + a(i+1,j) + a(i,j-1) + a(i,j+1)\n\
                   end do\nend do\nend\n";
        let mut p = parse(src).unwrap();
        let stats = DdStats::new();
        let mut nr = NestReport::default();
        tile_unit(&mut p.units[0], &stats, false, &mut nr);
        assert_eq!(applied(&nr, "tile"), 1, "{:?}", nr.rejections);
        polaris_ir::validate::validate_program(&p).unwrap();
        let outer = p.units[0].body.loops()[0];
        assert_eq!(outer.var, "JT");
        assert_eq!(outer.step_expr().as_int(), Some(TILE));
        let band = band_of(outer);
        let vars: Vec<&str> = band.iter().map(|d| d.var.as_str()).collect();
        assert_eq!(vars, vec!["JT", "IT", "J", "I"]);
        // Point loops: DO J = JT, JT + 7 (step 1).
        let point_j = band[2];
        assert_eq!(point_j.init, Expr::var("JT"));
        assert_eq!(point_j.limit, Expr::add(Expr::var("JT"), Expr::int(TILE - 1)));
        // The tile vars were declared.
        assert!(p.units[0].symbols.get("JT").is_some());
        assert!(p.units[0].symbols.get("IT").is_some());
        let cert = &nr.certs[0];
        let CertKind::Tile { band, sizes } = &cert.kind else { panic!("{:?}", cert.kind) };
        assert_eq!(band.as_slice(), &[0, 1]);
        assert_eq!(sizes.as_slice(), &[TILE, TILE]);
    }

    #[test]
    fn non_divisible_trip_count_is_not_tiled() {
        let src = "program t\nreal a(36,36), b(36,36)\n\
                   do j = 2, 35\n  do i = 2, 35\n\
                   \x20   b(i,j) = a(i-1,j) + a(i+1,j)\n\
                   end do\nend do\nend\n";
        let mut p = parse(src).unwrap();
        let stats = DdStats::new();
        let mut nr = NestReport::default();
        tile_unit(&mut p.units[0], &stats, false, &mut nr);
        assert!(nr.certs.is_empty(), "34 iterations are not a multiple of {TILE}");
        assert!(nr.rejections.is_empty(), "no candidate is judged: {nr:?}");
    }

    #[test]
    fn producer_consumer_loops_fuse_with_a_boundary_cert() {
        let src = "program t\nreal a(64), b(64), c(64)\n\
                   do i = 1, 64\n  a(i) = i * 1.0\nend do\n\
                   do i = 1, 64\n  b(i) = a(i) + 1.0\n  c(i) = a(i) * 2.0\nend do\n\
                   print *, b(1), c(1)\nend\n";
        let mut p = parse(src).unwrap();
        let stats = DdStats::new();
        let mut nr = NestReport::default();
        fuse_unit(&mut p.units[0], &stats, false, &mut nr);
        assert_eq!(applied(&nr, "fuse"), 1, "{:?}", nr.rejections);
        polaris_ir::validate::validate_program(&p).unwrap();
        let loops = p.units[0].body.loops();
        assert_eq!(loops.len(), 1, "the two loops merged");
        assert_eq!(loops[0].body.len(), 3);
        let CertKind::Fuse { boundary, .. } = nr.certs[0].kind else { panic!() };
        // The boundary is the first spliced statement: b(i) = a(i)+1.
        assert_eq!(loops[0].body.0[1].id.0, boundary);
        // Evidence records the a-producer/consumer Eq dependence.
        assert!(nr.certs[0].vectors.iter().any(|v| v.array == "A" && v.dirs == vec![NestDir::Eq]));
    }

    #[test]
    fn fusion_preventing_dependence_is_rejected() {
        // Second loop reads a(i+1): iteration i of body2 consumes what
        // iteration i+1 of body1 produces — fusing would read stale data.
        let src = "program t\nreal a(65), b(64)\n\
                   do i = 1, 64\n  a(i) = i * 1.0\nend do\n\
                   do i = 1, 64\n  b(i) = a(i+1) + 1.0\nend do\n\
                   print *, b(1)\nend\n";
        let mut p = parse(src).unwrap();
        let stats = DdStats::new();
        let mut nr = NestReport::default();
        fuse_unit(&mut p.units[0], &stats, false, &mut nr);
        assert!(nr.certs.is_empty(), "{nr:?}");
        assert_eq!(nr.rejections.len(), 1, "{nr:?}");
        assert!(nr.rejections[0].contains("fusion-preventing"), "{:?}", nr.rejections);
        assert_eq!(p.units[0].body.loops().len(), 2, "loops must stay split");
        // Forcing the fault applies it anyway (for the refusal tests).
        let mut p2 = parse(src).unwrap();
        let mut nr2 = NestReport::default();
        fuse_unit(&mut p2.units[0], &stats, true, &mut nr2);
        assert_eq!(applied(&nr2, "fuse"), 1);
    }

    #[test]
    fn unrelated_loops_do_not_fuse() {
        let src = "program t\nreal a(64), b(64)\n\
                   do i = 1, 64\n  a(i) = i * 1.0\nend do\n\
                   do i = 1, 64\n  b(i) = i * 2.0\nend do\n\
                   print *, a(1), b(1)\nend\n";
        let mut p = parse(src).unwrap();
        let stats = DdStats::new();
        let mut nr = NestReport::default();
        fuse_unit(&mut p.units[0], &stats, false, &mut nr);
        assert!(nr.certs.is_empty(), "no shared array, no fusion");
        assert!(nr.rejections.is_empty(), "no candidate is judged: {nr:?}");
    }

    #[test]
    fn stride_penalty_table_is_the_documented_one() {
        assert_eq!(stride_penalty(0, false), 0);
        assert_eq!(stride_penalty(1, false), 1);
        assert_eq!(stride_penalty(-1, false), 1);
        assert_eq!(stride_penalty(2, false), 24);
        assert_eq!(stride_penalty(0, true), 24);
        assert_eq!(stride_penalty(1, true), 24);
    }
}

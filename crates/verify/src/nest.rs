//! Independent re-proving of nest-transformation legality certificates.
//!
//! The `interchange`/`tile`/`fuse` stages in `polaris-core` justify every
//! applied transformation with a [`LegalityCert`] carrying the dependence
//! matrix they judged. This module **does not trust that matrix**: for
//! each cert it locates the transformed nest in the final IR, validates
//! the structural claim (the loops really are the claimed permutation /
//! tiling / fused splice), reconstructs the *original* iteration order
//! from the certificate's loop list, re-derives the dependence matrix
//! from the transformed program's own accesses, and re-judges legality
//! with the same prover — the `idxprop` refusal pattern. A certificate
//! the re-prover cannot reproduce is rejected with the stage attributed,
//! never believed; `FaultKind::ForceIllegal` exists precisely to test
//! that this is the layer that catches a lying pass.

use polaris_core::ddtest::DdStats;
use polaris_core::nestdeps::{
    band_of, fusion_legal, interchange_legal, rectangular_band, summarize_band_with, tiling_legal,
    NestLoop,
};
use polaris_core::CompileReport;
use polaris_ir::cert::{CertCheck, CertKind, LegalityCert};
use polaris_ir::stmt::{DoLoop, LoopId, StmtList};
use polaris_ir::Program;

/// Re-derive every certificate in `report` from the transformed
/// `program`. One [`CertCheck`] per cert, in emission order.
pub fn recheck_certs(program: &Program, report: &CompileReport) -> Vec<CertCheck> {
    let stats = DdStats::new();
    report
        .nest
        .certs
        .iter()
        .map(|cert| {
            let verdict = check_cert(program, cert, &stats);
            CertCheck {
                stage: cert.stage(),
                unit: cert.unit.clone(),
                label: cert.label.clone(),
                accepted: verdict.is_ok(),
                reason: verdict.err().unwrap_or_default(),
            }
        })
        .collect()
}

/// Deepest band a nest stage transforms. Re-deriving a matrix costs up
/// to 3ⁿ direction vectors per access pair, so a deeper cert is refused
/// unread — the re-prover's own bound, not one it takes from the cert
/// (`tests/nest_conformance.rs` ties it to the compiler's cap).
const MAX_CERT_DEPTH: usize = 4;

fn check_cert(program: &Program, cert: &LegalityCert, stats: &DdStats) -> Result<(), String> {
    if cert.loop_vars.len() > MAX_CERT_DEPTH {
        return Err(format!(
            "cert band of depth {} is deeper than any nest stage transforms ({MAX_CERT_DEPTH})",
            cert.loop_vars.len()
        ));
    }
    let unit = program
        .units
        .iter()
        .find(|u| u.name == cert.unit)
        .ok_or_else(|| format!("unit `{}` not found", cert.unit))?;
    let anchor = unit.body.loops().into_iter().find(|d| d.loop_id == cert.loop_id);
    let anchor = anchor
        .ok_or_else(|| format!("anchor loop {} not found in `{}`", cert.loop_id, cert.unit))?;
    match &cert.kind {
        CertKind::Interchange { perm } => check_interchange(anchor, cert, perm, stats),
        CertKind::Tile { band, sizes } => check_tile(anchor, cert, band, sizes, stats),
        CertKind::Fuse { fused_loop, boundary } => {
            check_fuse(anchor, *fused_loop, *boundary, stats)
        }
    }
}

fn valid_perm(perm: &[usize], n: usize) -> bool {
    let mut seen = vec![false; n];
    perm.len() == n
        && perm.iter().all(|&i| {
            if i >= n || seen[i] {
                false
            } else {
                seen[i] = true;
                true
            }
        })
}

/// Interchange: the transformed band's loop variables must be exactly
/// the cert's original list under the claimed permutation, and no band
/// bound may read a band variable (headers move verbatim, so only a
/// rectangular band keeps its iteration space); then the original-order
/// dependence matrix is re-derived from the transformed body (header
/// permutation does not move statements, so reordering the loop list
/// reconstructs the pre-transformation nest) and the permutation
/// re-judged against it.
fn check_interchange(
    anchor: &DoLoop,
    cert: &LegalityCert,
    perm: &[usize],
    stats: &DdStats,
) -> Result<(), String> {
    let n = cert.loop_vars.len();
    if !valid_perm(perm, n) {
        return Err(format!("perm {perm:?} is not a permutation of 0..{n}"));
    }
    let band = band_of(anchor);
    if band.len() < n {
        return Err(format!("band depth {} shallower than cert depth {n}", band.len()));
    }
    let band = &band[..n];
    for (k, d) in band.iter().enumerate() {
        if d.var != cert.loop_vars[perm[k]] {
            return Err(format!(
                "band position {k} holds `{}`, cert claims `{}`",
                d.var, cert.loop_vars[perm[k]]
            ));
        }
    }
    rectangular_band(band)?;
    // inverse[j] = transformed position of original loop j.
    let mut inverse = vec![0usize; n];
    for (k, &j) in perm.iter().enumerate() {
        inverse[j] = k;
    }
    let original: Vec<NestLoop> = inverse.iter().map(|&k| NestLoop::of(band[k])).collect();
    let body = &band[n - 1].body;
    let summary = summarize_band_with(original, body, anchor, stats);
    if summary.vars() != cert.loop_vars {
        return Err("re-derived loop order disagrees with cert".to_string());
    }
    interchange_legal(&summary.vectors, perm)
        .map_err(|e| format!("re-derived matrix rejects the permutation: {e}"))
}

/// Tiling: the transformed band must be `tile loops (step = size) over
/// point loops (step 1, bounds `T .. T+size-1`)`; the original band is
/// reconstructed by giving each point loop its tile loop's bounds, then
/// full permutability is re-judged over the re-derived matrix.
fn check_tile(
    anchor: &DoLoop,
    cert: &LegalityCert,
    band_idx: &[usize],
    sizes: &[i64],
    stats: &DdStats,
) -> Result<(), String> {
    let depth = cert.loop_vars.len();
    if band_idx.len() != depth || sizes.len() != depth {
        return Err("tile cert band/sizes do not cover the nest".to_string());
    }
    let band = band_of(anchor);
    if band.len() < 2 * depth {
        return Err(format!(
            "expected {} loops (tile + point), found {}",
            2 * depth,
            band.len()
        ));
    }
    let (tiles, points) = (&band[..depth], &band[depth..2 * depth]);
    let mut original = Vec::with_capacity(depth);
    for k in 0..depth {
        let (t, p) = (tiles[k], points[k]);
        if p.var != cert.loop_vars[k] {
            return Err(format!(
                "point loop {k} is `{}`, cert claims `{}` (tiling must not permute)",
                p.var, cert.loop_vars[k]
            ));
        }
        let size = sizes[k];
        if t.step_expr().simplified().as_int() != Some(size) {
            return Err(format!("tile loop `{}` does not step by {size}", t.var));
        }
        let (Some(lo), Some(hi)) =
            (t.init.simplified().as_int(), t.limit.simplified().as_int())
        else {
            return Err(format!("tile loop `{}` has non-constant bounds", t.var));
        };
        if size <= 0 || (hi - lo + 1) % size != 0 {
            return Err(format!(
                "tile loop `{}` trip {} is not a multiple of {size} (remainder iterations lost)",
                t.var,
                hi - lo + 1
            ));
        }
        let point_ok = p.init == polaris_ir::Expr::var(t.var.clone())
            && p.limit
                == polaris_ir::Expr::add(
                    polaris_ir::Expr::var(t.var.clone()),
                    polaris_ir::Expr::int(size - 1),
                )
            && p.step_expr().simplified().as_int() == Some(1);
        if !point_ok {
            return Err(format!(
                "point loop `{}` does not cover exactly its `{}` tile",
                p.var, t.var
            ));
        }
        original.push(NestLoop {
            var: p.var.clone(),
            loop_id: p.loop_id,
            label: p.label.clone(),
            lo: Some(lo),
            hi: Some(hi),
            unit_step: true,
        });
    }
    let body = &points[depth - 1].body;
    let summary = summarize_band_with(original, body, anchor, stats);
    tiling_legal(&summary.vectors, 0)
        .map_err(|e| format!("re-derived matrix rejects the tiling: {e}"))
}

/// Fusion: split the fused body back apart at the recorded boundary
/// statement and re-judge with the same cross-body prover the stage
/// claims to have used.
fn check_fuse(
    anchor: &DoLoop,
    fused_loop: LoopId,
    boundary: u32,
    stats: &DdStats,
) -> Result<(), String> {
    let split = anchor
        .body
        .0
        .iter()
        .position(|s| s.id.0 == boundary)
        .ok_or_else(|| format!("boundary statement s{boundary} not found in the fused body"))?;
    if split == 0 {
        return Err("boundary points at the first statement: nothing was fused".to_string());
    }
    let mut first = anchor.clone();
    let tail = first.body.0.split_off(split);
    let mut second = anchor.clone();
    second.body = StmtList(tail);
    second.loop_id = fused_loop;
    fusion_legal(&first, &second, stats)
        .map(|_| ())
        .map_err(|e| format!("re-derived cross-body analysis rejects the fusion: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_core::pipeline::FaultPlan;
    use polaris_core::PassOptions;

    const MMT: &str = "program mmt\nreal a(32,32), b(32,32), c(32,32)\nreal s\ns = 0.0\n\
                       do k = 1, 32\n  do i = 1, 32\n    do j = 1, 32\n\
                       \x20     c(i,j) = c(i,j) + a(k,i) * b(k,j)\n\
                       \x20     s = s + a(k,i)\n\
                       end do\nend do\nend do\nprint *, s\nend\n";

    const STENCIL: &str = "program st\nreal a(34,34), b(34,34)\n\
                           do j = 2, 33\n  do i = 2, 33\n\
                           \x20   b(i,j) = a(i,j) + a(i-1,j) + a(i+1,j) + a(i,j-1) + a(i,j+1)\n\
                           end do\nend do\nprint *, b(2,2)\nend\n";

    const FUSABLE: &str = "program fu\nreal a(64), b(64)\n\
                           do i = 1, 64\n  a(i) = i * 1.0\nend do\n\
                           do i = 1, 64\n  b(i) = a(i) + 1.0\nend do\n\
                           print *, b(1)\nend\n";

    fn compiled(src: &str, opts: &PassOptions) -> (Program, CompileReport) {
        polaris_core::parse_and_compile(src, opts).unwrap()
    }

    /// How many transformations of `stage` the compile applied.
    fn applied(rep: &CompileReport, stage: &str) -> usize {
        rep.nest.certs.iter().filter(|c| c.stage() == stage).count()
    }

    #[test]
    fn honest_certs_are_reaccepted() {
        for src in [MMT, STENCIL, FUSABLE] {
            let (p, rep) = compiled(src, &PassOptions::polaris());
            assert!(!rep.nest.certs.is_empty(), "no transformation fired on {src}");
            let checks = recheck_certs(&p, &rep);
            for c in &checks {
                assert!(c.accepted, "{}/{}: {}", c.stage, c.label, c.reason);
            }
        }
    }

    #[test]
    fn forced_illegal_interchange_is_rejected_with_stage_attribution() {
        let src = "program t\nreal a(64,64)\n\
                   do i = 2, 63\n  do j = 2, 63\n\
                   \x20   a(i,j) = a(i+1,j-1) + 1.0\n\
                   end do\nend do\nprint *, a(2,2)\nend\n";
        let opts = PassOptions::polaris().with_faults(FaultPlan::force_in("interchange"));
        let (p, rep) = compiled(src, &opts);
        assert_eq!(applied(&rep, "interchange"), 1, "fault must force the application");
        let checks = recheck_certs(&p, &rep);
        let bad: Vec<_> = checks.iter().filter(|c| !c.accepted).collect();
        assert_eq!(bad.len(), 1, "{checks:?}");
        assert_eq!(bad[0].stage, "interchange");
        assert!(bad[0].reason.contains("rejects the permutation"), "{}", bad[0].reason);
    }

    #[test]
    fn interchange_cert_over_a_huge_skew_under_symbolic_bounds_is_rejected() {
        // What a(i,j) = a(i-1,j+40000000), a (<, >) dependence over
        // (I, J), looked like after the interchange the compiler used to
        // apply to it, with the cert it used to emit.
        let src = "program t\nreal a(1000,50000000)\ninteger ia(10)\nn = ia(1)\nm = ia(2)\n\
                   do j = 1, m\n  do i = 2, n\n\
                   \x20   a(i,j) = a(i-1,j+40000000) + 1.0\n\
                   end do\nend do\nprint *, a(2,1)\nend\n";
        let (p, mut rep) = compiled(src, &PassOptions::polaris());
        assert!(rep.nest.certs.is_empty(), "{:?}", rep.nest.certs);
        let anchor = p.units[0].body.loops()[0];
        rep.nest.certs.push(LegalityCert {
            unit: p.units[0].name.clone(),
            loop_id: anchor.loop_id,
            label: anchor.label.clone(),
            loop_vars: vec!["I".into(), "J".into()],
            vectors: Vec::new(),
            kind: CertKind::Interchange { perm: vec![1, 0] },
        });
        let checks = recheck_certs(&p, &rep);
        assert!(!checks[0].accepted, "{checks:?}");
        assert_eq!(checks[0].stage, "interchange");
        assert!(checks[0].reason.contains("rejects the permutation"), "{}", checks[0].reason);
    }

    #[test]
    fn interchange_cert_over_a_private_scalar_left_in_a_subscript_is_rejected() {
        // JT = 2K-J: a(i,j+2k) = a(i-1,j+2k+1), a (<, >) dependence over
        // (I, J), as it looked after the interchange the compiler used to
        // apply over an empty matrix — which this re-prover re-derived and
        // accepted, reading JT as a fixed symbol the same way.
        let src = "program t\nreal a(64,200)\ninteger ia(4), k, jt\nk = ia(1)\n\
                   do j = 1, 64\n  do i = 2, 64\n\
                   \x20   jt = k - j\n    jt = jt + k\n\
                   \x20   a(i, jt + 2*j) = a(i-1, jt + 2*j + 1) + 1.0\n\
                   end do\nend do\nprint *, a(2,1)\nend\n";
        let (p, mut rep) = compiled(src, &PassOptions::polaris());
        assert!(rep.nest.certs.is_empty(), "{:?}", rep.nest.certs);
        let anchor = p.units[0].body.loops()[0];
        rep.nest.certs.push(LegalityCert {
            unit: p.units[0].name.clone(),
            loop_id: anchor.loop_id,
            label: anchor.label.clone(),
            loop_vars: vec!["I".into(), "J".into()],
            vectors: Vec::new(),
            kind: CertKind::Interchange { perm: vec![1, 0] },
        });
        let checks = recheck_certs(&p, &rep);
        assert!(!checks[0].accepted, "{checks:?}");
        assert!(checks[0].reason.contains("rejects the permutation"), "{}", checks[0].reason);
    }

    #[test]
    fn interchange_cert_over_a_write_that_meets_itself_is_rejected() {
        // A(I+J) over (J, I) carries its own (<, >) output dependence; as
        // it looked after the interchange the compiler used to apply with
        // an empty matrix, which this re-prover re-derived the same way.
        let src = "program t\nreal a(40), b(20,20)\n\
                   do i = 1, 20\n  do j = 1, 20\n\
                   \x20   a(i+j) = b(j,i)\n\
                   end do\nend do\nprint *, a(5)\nend\n";
        let (p, mut rep) = compiled(src, &PassOptions::polaris());
        assert!(rep.nest.certs.is_empty(), "{:?}", rep.nest.certs);
        let anchor = p.units[0].body.loops()[0];
        rep.nest.certs.push(LegalityCert {
            unit: p.units[0].name.clone(),
            loop_id: anchor.loop_id,
            label: anchor.label.clone(),
            loop_vars: vec!["J".into(), "I".into()],
            vectors: Vec::new(),
            kind: CertKind::Interchange { perm: vec![1, 0] },
        });
        let checks = recheck_certs(&p, &rep);
        assert!(!checks[0].accepted, "{checks:?}");
        assert!(checks[0].reason.contains("A: (<, >)"), "{}", checks[0].reason);
    }

    #[test]
    fn forced_interchange_of_a_triangular_band_is_rejected_on_its_bounds() {
        // The dependence matrix is empty and the permuted IR is well
        // formed, so only the re-prover's own bounds check can refuse it.
        let src = "program t\nreal a(64,64)\n\
                   do i = 1, 64\n  do j = 1, i\n    a(i,j) = 1.0\n  end do\nend do\n\
                   print *, a(2,1)\nend\n";
        let opts = PassOptions::polaris().with_faults(FaultPlan::force_in("interchange"));
        let (p, rep) = compiled(src, &opts);
        assert_eq!(applied(&rep, "interchange"), 1, "fault must force the application");
        assert!(!rep.degraded(), "post-stage validation must pass: {:?}", rep.stages);
        let checks = recheck_certs(&p, &rep);
        assert_eq!(checks.len(), 1);
        assert!(!checks[0].accepted, "{checks:?}");
        assert_eq!(checks[0].stage, "interchange");
        assert!(checks[0].reason.contains("band bound reads band variable `I`"), "{checks:?}");
    }

    #[test]
    fn cert_deeper_than_any_stage_transforms_is_rejected_unread() {
        let (p, mut rep) = compiled(MMT, &PassOptions::polaris());
        rep.nest.certs[0].loop_vars = (1..=12).map(|k| format!("I{k}")).collect();
        let checks = recheck_certs(&p, &rep);
        assert!(!checks[0].accepted);
        assert!(checks[0].reason.contains("deeper than any nest stage"), "{}", checks[0].reason);
    }

    #[test]
    fn forced_illegal_tile_is_rejected_with_stage_attribution() {
        // (<, >) dependence with stencil reuse and 8-divisible trips:
        // a tiling candidate the prover rejects; the fault applies it.
        let src = "program t\nreal a(34,34)\n\
                   do i = 2, 33\n  do j = 2, 33\n\
                   \x20   a(i,j) = a(i-1,j+1) + a(i-1,j-1)\n\
                   end do\nend do\nprint *, a(2,2)\nend\n";
        let opts = PassOptions::polaris().with_faults(FaultPlan::force_in("tile"));
        let (p, rep) = compiled(src, &opts);
        assert_eq!(applied(&rep, "tile"), 1, "fault must force the application: {:?}", rep.nest);
        let checks = recheck_certs(&p, &rep);
        let bad: Vec<_> = checks.iter().filter(|c| !c.accepted).collect();
        assert_eq!(bad.len(), 1, "{checks:?}");
        assert_eq!(bad[0].stage, "tile");
        assert!(bad[0].reason.contains("rejects the tiling"), "{}", bad[0].reason);
    }

    #[test]
    fn forced_illegal_fusion_is_rejected_with_stage_attribution() {
        let src = "program t\nreal a(65), b(64)\n\
                   do i = 1, 64\n  a(i) = i * 1.0\nend do\n\
                   do i = 1, 64\n  b(i) = a(i+1) + 1.0\nend do\n\
                   print *, b(1)\nend\n";
        let opts = PassOptions::polaris().with_faults(FaultPlan::force_in("fuse"));
        let (p, rep) = compiled(src, &opts);
        assert_eq!(applied(&rep, "fuse"), 1, "fault must force the application");
        let checks = recheck_certs(&p, &rep);
        let bad: Vec<_> = checks.iter().filter(|c| !c.accepted).collect();
        assert_eq!(bad.len(), 1, "{checks:?}");
        assert_eq!(bad[0].stage, "fuse");
        assert!(bad[0].reason.contains("rejects the fusion"), "{}", bad[0].reason);
    }

    #[test]
    fn tampered_cert_matrix_is_ignored_by_the_rederivation() {
        // Blank out the cert's own evidence: the re-prover must still
        // accept, because it never reads the cert's matrix.
        let (p, mut rep) = compiled(MMT, &PassOptions::polaris());
        for cert in &mut rep.nest.certs {
            cert.vectors.clear();
        }
        let checks = recheck_certs(&p, &rep);
        assert!(checks.iter().all(|c| c.accepted), "{checks:?}");
    }

    #[test]
    fn cert_pointing_at_a_missing_loop_is_rejected() {
        let (p, mut rep) = compiled(MMT, &PassOptions::polaris());
        for cert in &mut rep.nest.certs {
            cert.loop_id = LoopId(9999);
        }
        let checks = recheck_certs(&p, &rep);
        assert!(checks.iter().all(|c| !c.accepted));
        assert!(checks[0].reason.contains("not found"), "{}", checks[0].reason);
    }
}

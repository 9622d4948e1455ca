//! Machine-checkable legality certificates for loop-nest
//! transformations.
//!
//! The `nestdeps` analysis in `polaris-core` summarizes a loop nest as a
//! matrix of direction/distance vectors and judges candidate
//! transformations (interchange, rectangular tiling, adjacent-loop
//! fusion) against it. Every transformation the pipeline *applies* is
//! justified by a [`LegalityCert`] carrying the evidence the prover used:
//! the nest identification (loop ids + variables, in original order), the
//! dependence-vector matrix, and the judged transformation. The cert is
//! deliberately plain data living in the IR crate so that `polaris-verify`
//! can re-derive it from the transformed program *without* trusting the
//! pass that emitted it (the `idxprop` refusal pattern): a cert the
//! re-prover cannot reproduce is rejected, never believed.

use crate::stmt::LoopId;

/// One direction entry of a dependence vector, per nest loop
/// (outermost first). `Star` is the symbolic-fallback "any direction"
/// entry used when a pair falls outside the affine fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum NestDir {
    /// `<` — source iteration strictly earlier in this loop.
    Lt,
    /// `=` — same iteration of this loop.
    Eq,
    /// `>` — source iteration strictly later (never stored in
    /// canonical vectors; appears only inside evidence rows).
    Gt,
    /// `*` — unknown / any direction (conservative fallback).
    Star,
}

impl NestDir {
    pub(crate) fn glyph(self) -> char {
        match self {
            NestDir::Lt => '<',
            NestDir::Eq => '=',
            NestDir::Gt => '>',
            NestDir::Star => '*',
        }
    }
}

/// One row of the nest's dependence matrix: a direction vector over the
/// nest loops with optional constant distances and the relaxability tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepVector {
    /// The array (or scalar) both endpoints touch.
    pub array: String,
    /// Direction per nest loop, outermost first.
    pub dirs: Vec<NestDir>,
    /// Constant dependence distance per loop where known (`None` when
    /// symbolic or direction-only).
    pub distance: Vec<Option<i64>>,
    /// Reduction dependence, relaxable under reordering (the Polly
    /// reductions model): both endpoints belong to validated reduction
    /// statements updating the same location with the same operator.
    pub relaxable: bool,
}

impl DepVector {
    /// Render like `A: (<, =) d=(1, 0)`.
    pub fn render(&self) -> String {
        let dirs: Vec<String> = self.dirs.iter().map(|d| d.glyph().to_string()).collect();
        let mut s = format!("{}: ({})", self.array, dirs.join(", "));
        if self.distance.iter().any(|d| d.is_some()) {
            let ds: Vec<String> = self
                .distance
                .iter()
                .map(|d| d.map(|v| v.to_string()).unwrap_or_else(|| "?".into()))
                .collect();
            s.push_str(&format!(" d=({})", ds.join(", ")));
        }
        if self.relaxable {
            s.push_str(" [relaxable]");
        }
        s
    }
}

/// The transformation a certificate claims legal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertKind {
    /// Permute the nest loops: `perm[k]` is the index (in the original
    /// order, outermost first) of the loop now at position `k`.
    Interchange { perm: Vec<usize> },
    /// Rectangular tiling of the innermost band: the band loops (by
    /// original position) and the tile size applied to each.
    Tile { band: Vec<usize>, sizes: Vec<i64> },
    /// Fuse the adjacent following loop into this one. `boundary` is the
    /// statement id of the first statement spliced from the second loop
    /// — the re-prover splits the fused body there.
    Fuse { fused_loop: LoopId, boundary: u32 },
}

impl CertKind {
    pub fn stage(&self) -> &'static str {
        match self {
            CertKind::Interchange { .. } => "interchange",
            CertKind::Tile { .. } => "tile",
            CertKind::Fuse { .. } => "fuse",
        }
    }

    /// Short human-readable description for `--diag` and reports.
    pub fn describe(&self) -> String {
        match self {
            CertKind::Interchange { perm } => {
                let p: Vec<String> = perm.iter().map(|i| i.to_string()).collect();
                format!("interchange perm=({})", p.join(","))
            }
            CertKind::Tile { band, sizes } => {
                let b: Vec<String> = band.iter().map(|i| i.to_string()).collect();
                let s: Vec<String> = sizes.iter().map(|i| i.to_string()).collect();
                format!("tile band=({}) sizes=({})", b.join(","), s.join(","))
            }
            CertKind::Fuse { fused_loop, boundary } => {
                format!("fuse {fused_loop} at stmt {boundary}")
            }
        }
    }
}

/// A machine-checkable claim that one applied nest transformation is
/// legal, with the dependence evidence the prover judged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LegalityCert {
    /// Unit the nest lives in.
    pub unit: String,
    /// The nest's outermost loop (after transformation, the anchor the
    /// re-prover locates the nest by).
    pub loop_id: LoopId,
    /// Label of the anchor loop, for humans.
    pub label: String,
    /// Nest loop variables in **original** (pre-transformation) order,
    /// outermost first.
    pub loop_vars: Vec<String>,
    /// The dependence matrix over `loop_vars` the prover judged
    /// (canonical lexicographically-non-negative rows).
    pub vectors: Vec<DepVector>,
    /// The judged transformation.
    pub kind: CertKind,
}

impl LegalityCert {
    pub fn stage(&self) -> &'static str {
        self.kind.stage()
    }
}

/// Verdict of the independent cert re-prover in `polaris-verify`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertCheck {
    /// Stage the cert attributes itself to (`interchange`/`tile`/`fuse`).
    pub stage: &'static str,
    pub unit: String,
    pub label: String,
    /// `true` — independently re-derived from the transformed IR.
    pub accepted: bool,
    /// Why the cert was rejected (empty when accepted).
    pub reason: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dep_vector_renders_compactly() {
        let v = DepVector {
            array: "A".into(),
            dirs: vec![NestDir::Lt, NestDir::Eq],
            distance: vec![Some(1), Some(0)],
            relaxable: false,
        };
        assert_eq!(v.render(), "A: (<, =) d=(1, 0)");
        let star = DepVector {
            array: "S".into(),
            dirs: vec![NestDir::Star],
            distance: vec![None],
            relaxable: true,
        };
        assert_eq!(star.render(), "S: (*) [relaxable]");
    }

    #[test]
    fn cert_kind_names_its_stage() {
        assert_eq!(CertKind::Interchange { perm: vec![1, 0] }.stage(), "interchange");
        assert_eq!(CertKind::Tile { band: vec![0, 1], sizes: vec![8, 8] }.stage(), "tile");
        assert_eq!(
            CertKind::Fuse { fused_loop: LoopId(4), boundary: 9 }.stage(),
            "fuse"
        );
        assert!(CertKind::Interchange { perm: vec![2, 0, 1] }
            .describe()
            .contains("perm=(2,0,1)"));
    }
}

//! Symbols and symbol tables.

use crate::expr::Expr;
use crate::types::DataType;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// One dimension of an array declaration: `lo:hi` (F-Mini default `1:hi`).
///
/// Bounds may be symbolic expressions (`A(N, M)`), which is precisely what
/// forces the symbolic region analysis of §3.4.
#[derive(Debug, Clone, PartialEq)]
pub struct Dim {
    pub lo: Expr,
    pub hi: Expr,
}

impl Dim {
    pub(crate) fn upto(hi: Expr) -> Dim {
        Dim { lo: Expr::Int(1), hi }
    }

    /// Constant extent if both bounds are integer literals.
    pub fn const_extent(&self) -> Option<i64> {
        let lo = self.lo.simplified().as_int()?;
        let hi = self.hi.simplified().as_int()?;
        Some((hi - lo + 1).max(0))
    }
}

/// Statically proven facts about the *contents* of an integer index
/// array, in the spirit of Bhosale & Eigenmann's subscripted-subscript
/// analysis: a small property lattice (monotone / strictly monotone /
/// injective / permutation / value-bounded) over the subscript domain a
/// defining fill loop covered. Computed by `polaris-core`'s `idxprop`
/// stage and consumed by the dependence framework, which can then prove
/// `A(IDX(I))` scatters parallel when the property suffices.
///
/// Every `true` flag is a *proof obligation met*, never a heuristic:
/// facts hold only for subscripts within `[domain_lo, domain_hi]` and
/// only while the array is not rewritten.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayProps {
    /// Entries never decrease with the subscript (non-strict).
    pub monotone_inc: bool,
    /// Entries never increase with the subscript (non-strict).
    pub monotone_dec: bool,
    /// The monotone direction above holds *strictly* (no equal
    /// neighbours) — which implies `injective`.
    pub strict: bool,
    /// Distinct subscripts in the domain hold distinct values.
    pub injective: bool,
    /// The stored values form a contiguous integer range (an affine
    /// relabeling of the domain — `IDX(I)=I`-style fills).
    pub permutation: bool,
    /// Proven bounds on every stored value, when derivable.
    pub value_lo: Option<Expr>,
    pub value_hi: Option<Expr>,
    /// Subscript range the defining fill covered; the facts above say
    /// nothing about elements outside it.
    pub domain_lo: Expr,
    pub domain_hi: Expr,
}

impl ArrayProps {
    /// Fresh lattice bottom over a domain: nothing proven yet.
    pub fn over(domain_lo: Expr, domain_hi: Expr) -> ArrayProps {
        ArrayProps {
            monotone_inc: false,
            monotone_dec: false,
            strict: false,
            injective: false,
            permutation: false,
            value_lo: None,
            value_hi: None,
            domain_lo,
            domain_hi,
        }
    }

    /// True if any property beyond the bare domain was proven.
    pub fn any(&self) -> bool {
        self.monotone_inc
            || self.monotone_dec
            || self.injective
            || self.permutation
            || self.value_lo.is_some()
            || self.value_hi.is_some()
    }

    /// Short human-readable fact list for diagnostics
    /// (e.g. `strictly-increasing injective permutation`).
    pub fn facts(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        match (self.monotone_inc, self.monotone_dec, self.strict) {
            (true, _, true) => out.push("strictly-increasing"),
            (true, _, false) => out.push("non-decreasing"),
            (_, true, true) => out.push("strictly-decreasing"),
            (_, true, false) => out.push("non-increasing"),
            _ => {}
        }
        if self.injective {
            out.push("injective");
        }
        if self.permutation {
            out.push("permutation");
        }
        if self.value_lo.is_some() || self.value_hi.is_some() {
            out.push("bounded");
        }
        out
    }
}

/// What kind of object a symbol denotes.
#[derive(Debug, Clone, PartialEq)]
pub enum SymKind {
    /// A scalar variable.
    Scalar,
    /// An array with its declared dimensions.
    Array(Vec<Dim>),
    /// A named constant with its defining expression (`PARAMETER`).
    Parameter(Expr),
    /// A subroutine/function name visible in this unit.
    External,
}

/// A declared (or implicitly typed) symbol.
#[derive(Debug, Clone, PartialEq)]
pub struct Symbol {
    pub name: String,
    pub ty: DataType,
    pub kind: SymKind,
    /// Name of the COMMON block this symbol lives in, if any.
    pub common: Option<String>,
    /// True if the symbol is a dummy argument of its unit.
    pub is_arg: bool,
    /// Proven index-array content properties (set by the `idxprop`
    /// stage; `None` until then and for non-index arrays).
    pub props: Option<ArrayProps>,
}

impl Symbol {
    pub fn scalar(name: impl Into<String>, ty: DataType) -> Symbol {
        Symbol {
            name: name.into(),
            ty,
            kind: SymKind::Scalar,
            common: None,
            is_arg: false,
            props: None,
        }
    }

    pub(crate) fn array(name: impl Into<String>, ty: DataType, dims: Vec<Dim>) -> Symbol {
        Symbol {
            name: name.into(),
            ty,
            kind: SymKind::Array(dims),
            common: None,
            is_arg: false,
            props: None,
        }
    }

    pub(crate) fn parameter(name: impl Into<String>, ty: DataType, value: Expr) -> Symbol {
        Symbol {
            name: name.into(),
            ty,
            kind: SymKind::Parameter(value),
            common: None,
            is_arg: false,
            props: None,
        }
    }

    pub(crate) fn is_array(&self) -> bool {
        matches!(self.kind, SymKind::Array(_))
    }

    pub fn dims(&self) -> &[Dim] {
        match &self.kind {
            SymKind::Array(d) => d,
            _ => &[],
        }
    }

    /// Rank (0 for scalars).
    pub fn rank(&self) -> usize {
        self.dims().len()
    }
}

/// Per-unit symbol table.
///
/// Uses a `BTreeMap` so iteration (and therefore unparsing, pass output and
/// test expectations) is deterministic — the HPC-guide equivalent of
/// avoiding hash-iteration nondeterminism in a compiler.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SymbolTable {
    map: BTreeMap<String, Symbol>,
}

/// The key `name` is stored under: upper-cased, and borrowed when it
/// already is — as every name is once the parser has seen it.
fn key(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_lowercase()) {
        Cow::Owned(name.to_ascii_uppercase())
    } else {
        Cow::Borrowed(name)
    }
}

impl SymbolTable {
    pub(crate) fn new() -> SymbolTable {
        SymbolTable::default()
    }

    /// Insert or replace a symbol (name is upper-cased).
    pub fn insert(&mut self, mut sym: Symbol) {
        sym.name.make_ascii_uppercase();
        self.map.insert(sym.name.clone(), sym);
    }

    pub fn get(&self, name: &str) -> Option<&Symbol> {
        self.map.get(&*key(name))
    }

    pub fn get_mut(&mut self, name: &str) -> Option<&mut Symbol> {
        self.map.get_mut(&*key(name))
    }

    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    pub fn remove(&mut self, name: &str) -> Option<Symbol> {
        self.map.remove(&*key(name))
    }

    pub fn iter(&self) -> impl Iterator<Item = &Symbol> {
        self.map.values()
    }

    /// The declared or implicit type of `name` (Fortran implicit rules
    /// apply to undeclared identifiers).
    pub fn type_of(&self, name: &str) -> DataType {
        match self.get(name) {
            Some(s) => s.ty,
            None => DataType::implicit_for(name),
        }
    }

    /// True if `name` names an array in this table.
    pub fn is_array(&self, name: &str) -> bool {
        self.get(name).map(|s| s.is_array()).unwrap_or(false)
    }

    /// Generate a name not currently in the table, of the form
    /// `{base}_{k}` — used by the inliner's renaming and by pass-created
    /// temporaries.
    pub fn unique_name(&self, base: &str) -> String {
        let base = base.to_ascii_uppercase();
        if !self.contains(&base) {
            return base;
        }
        for k in 1.. {
            let cand = format!("{base}_{k}");
            if !self.contains(&cand) {
                return cand;
            }
        }
        unreachable!()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_normalizes_case_and_lookup_is_insensitive() {
        let mut t = SymbolTable::new();
        t.insert(Symbol::scalar("foo", DataType::Real));
        assert!(t.contains("FOO"));
        assert!(t.contains("foo"));
        assert_eq!(t.get("Foo").unwrap().name, "FOO");
    }

    #[test]
    fn every_lookup_takes_either_case() {
        let mut t = SymbolTable::new();
        t.insert(Symbol::scalar("bar", DataType::Integer));
        t.insert(Symbol::scalar("BAZ_1", DataType::Real));
        for name in ["bar", "Bar", "BAR", "baz_1", "BAZ_1"] {
            assert!(t.contains(name), "{name}");
            assert_eq!(t.get(name).unwrap().name, name.to_ascii_uppercase());
            t.get_mut(name).unwrap().is_arg = true;
        }
        assert!(t.iter().all(|s| s.is_arg));
        assert!(!t.contains("ba") && t.get_mut("BARR").is_none());
        assert_eq!(t.remove("bAr").unwrap().name, "BAR");
        assert_eq!(t.remove("BAZ_1").unwrap().name, "BAZ_1");
        assert!(t.iter().next().is_none() && t.remove("BAR").is_none());
    }

    #[test]
    fn type_of_falls_back_to_implicit() {
        let t = SymbolTable::new();
        assert_eq!(t.type_of("I"), DataType::Integer);
        assert_eq!(t.type_of("X"), DataType::Real);
    }

    #[test]
    fn unique_name_skips_existing() {
        let mut t = SymbolTable::new();
        t.insert(Symbol::scalar("K", DataType::Integer));
        t.insert(Symbol::scalar("K_1", DataType::Integer));
        assert_eq!(t.unique_name("K"), "K_2");
        assert_eq!(t.unique_name("Z"), "Z");
    }

    #[test]
    fn dims_and_rank() {
        let a = Symbol::array(
            "A",
            DataType::Real,
            vec![Dim::upto(Expr::int(10)), Dim::upto(Expr::var("N"))],
        );
        assert_eq!(a.rank(), 2);
        assert_eq!(a.dims()[0].const_extent(), Some(10));
        assert_eq!(a.dims()[1].const_extent(), None);
    }

    #[test]
    fn iteration_is_sorted() {
        let mut t = SymbolTable::new();
        for n in ["Z", "A", "M"] {
            t.insert(Symbol::scalar(n, DataType::Real));
        }
        let names: Vec<_> = t.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["A", "M", "Z"]);
    }
}

//! What the polynomial layer's *representation* must never change: the
//! canonical term order as it reaches printed subscripts (and so every
//! golden under `tests/golden/`), and the one place where a coefficient
//! bucket is filled without arithmetic. Written against the public API
//! only, so the same file passes on the `BTreeMap` form it was recorded
//! from and on the flat form that replaced it.

use polaris_symbolic::poly::{Atom, DivPolicy, Poly};
use polaris_symbolic::Rat;

fn p(src: &str) -> Poly {
    let full = format!("program t\ninteger z(1000)\nx = {src}\nend\n");
    let prog = polaris_ir::parse(&full).unwrap();
    match &prog.units[0].body.0[0].kind {
        polaris_ir::StmtKind::Assign { rhs, .. } => Poly::from_expr(rhs, DivPolicy::Exact).unwrap(),
        other => unreachable!("not an assignment: {other:?}"),
    }
}

/// `(source, forward difference in, printed form)` — recorded from the
/// `BTreeMap<Monomial, Rat>` representation at PR 19 and compared byte
/// for byte. Rows 1–11 are the TRFD and OCEAN subscripts of
/// `benchmark/src/symbolic.rs` and their forward differences; the rest
/// cover rational coefficients, opaque and mixed monomials, a negative
/// leading term, an inexact (opaque) division, a cubic, and zero.
const TABLE: &[(&str, Option<&str>, &str)] = &[
    ("(i*(n**2+n) + j**2 - j)/2 + k + 1", None, "(2+I*N+I*N**2-J+J**2+2*K)/2"),
    ("(i*(n**2+n) + j**2 - j)/2 + k + 1", Some("I"), "(N+N**2)/2"),
    ("(i*(n**2+n) + j**2 - j)/2 + k + 1", Some("J"), "J"),
    ("(i*(n**2+n) + j**2 - j)/2 + k + 1", Some("K"), "1"),
    ("258*x*j + 129*k + i + 1", None, "1+I+258*J*X+129*K"),
    ("258*x*j + 129*k + i + 1", Some("I"), "1"),
    ("258*x*j + 129*k + i + 1", Some("J"), "258*X"),
    ("258*x*j + 129*k + i + 1", Some("K"), "129"),
    ("258*x*j + 129*k + i + 1 + 129*x", None, "1+I+258*J*X+129*K+129*X"),
    ("258*x*j + 129*k + i + 1 + 129*x", Some("J"), "258*X"),
    ("258*x*j + 129*k + i + 1 + 129*x", Some("X"), "129+258*J"),
    ("(n*n + n)/2 + (j**3 - j)/3 - 7", None, "(-42-2*J+2*J**3+3*N+3*N**2)/6"),
    (
        "z(k)*i + 2*z(k+1)*n - mod(i, 4)*j + z(k)*z(k)",
        None,
        "I*Z(K)-J*MOD(I, 4)+2*N*Z(K+1)+Z(K)**2",
    ),
    ("3 - a*b - b*a*c + c", None, "3-A*B-A*B*C+C"),
    ("(n/m)*i + q - 2*(n/m)", None, "I*(N/M)+Q-2*(N/M)"),
    (
        "(i + j + 1)**3 - i**3",
        None,
        "1+3*I+6*I*J+3*I*J**2+3*I**2+3*I**2*J+3*J+3*J**2+J**3",
    ),
    (
        "(i*i - i)/2 - (j*j + j)/2 + 2.5*i - z(1)",
        None,
        "(-I+2*I*2.5+I**2-J-J**2-2*Z(1))/2",
    ),
    ("i - i", None, "0"),
];

#[test]
fn canonical_print_is_byte_identical_to_the_recorded_table() {
    for (src, diff_in, want) in TABLE {
        let q = p(src);
        let q = match diff_in {
            Some(v) => q.forward_diff(v).unwrap(),
            None => q,
        };
        assert_eq!(&q.to_string(), want, "Display of {src} (diff in {diff_in:?})");
        assert_eq!(
            &polaris_ir::printer::format_expr(&q.to_expr()),
            want,
            "to_expr of {src} (diff in {diff_in:?})"
        );
    }
}

/// A power bucket of `by_powers_of_atom` is filled, never summed: two
/// terms with the same power of the atom have distinct remaining
/// monomials, so no coefficient arithmetic happens and none can
/// overflow. (The `BTreeMap` form carried a fallback for that overflow
/// which, had it ever run, would have dropped the bucket's earlier
/// terms; this test is why it could be deleted rather than fixed.)
#[test]
fn by_powers_of_atom_moves_extreme_coefficients_untouched() {
    let big = Rat::int(i128::MAX);
    let small = Rat::int(i128::MIN + 1);
    let term = |a: &Poly, b: &Poly, c: Rat| a.checked_mul(b).unwrap().checked_scale(c).unwrap();
    for atom in [Atom::var("X"), Atom::opaque(polaris_ir::Expr::index("Z", vec![polaris_ir::Expr::var("K")]))] {
        let x = match &atom {
            Atom::Var(n) => Poly::var(n.clone()),
            Atom::Opaque { expr, .. } => Poly::opaque((**expr).clone()),
        };
        let (a, b) = (Poly::var("A"), Poly::var("B"));
        // MAX*a*x + (MIN+1)*b*x + MAX*a + 3
        let f = term(&a, &x, big)
            .checked_add(&term(&b, &x, small))
            .and_then(|f| f.checked_add(&a.checked_scale(big)?))
            .and_then(|f| f.checked_add(&Poly::int(3)))
            .unwrap();
        let parts = f.by_powers_of_atom(&atom);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], a.checked_scale(big).unwrap().checked_add(&Poly::int(3)).unwrap());
        assert_eq!(
            parts[1],
            a.checked_scale(big).unwrap().checked_add(&b.checked_scale(small).unwrap()).unwrap()
        );
        let back = parts[0].checked_add(&parts[1].checked_mul(&x).unwrap()).unwrap();
        assert_eq!(back, f);
    }
}

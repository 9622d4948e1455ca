//! Flow-sensitive range propagation (§3.3.1, "range propagation").
//!
//! Builds the [`RangeEnv`] that holds "symbolic lower and upper bounds
//! for each variable" at a given program point, by abstractly executing
//! the structured control flow from the start of the unit to the point:
//!
//! * `PARAMETER` constants contribute exact values,
//! * unconditional scalar assignments contribute exact symbolic values
//!   (`MP = M*P` makes `MP`'s range `[M*P, M*P]` — this is the
//!   flow-sensitive def-use information the paper obtains from its GSA
//!   form; Figure 4's proof falls out of it),
//! * `!$ASSERT` directives and enclosing `IF` conditions tighten ranges,
//! * enclosing `DO` headers contribute loop-variable intervals *and* the
//!   non-emptiness fact `init <= limit`,
//! * any re-assignment invalidates facts that mention the variable —
//!   including facts established before an enclosing loop for variables
//!   modified by earlier iterations of that loop.

use polaris_ir::expr::Expr;
use polaris_ir::stmt::{DoLoop, IfArm, Stmt, StmtId, StmtKind, StmtList};
use polaris_ir::symbol::SymKind;
use polaris_ir::ProgramUnit;
use polaris_symbolic::poly::{DivPolicy, Poly};
use polaris_symbolic::{Range, RangeEnv};
use std::collections::BTreeSet;

/// The environment holding just before statement `target` executes
/// (on the path that reaches it). If `target` is not found the
/// environment reflects the end of the unit.
#[cfg(test)]
pub(crate) fn env_before(unit: &ProgramUnit, target: StmtId) -> RangeEnv {
    let mut env = RangeEnv::new();
    seed_parameters(unit, &mut env);
    walk(&unit.body, target, &mut env);
    env
}

/// The environment valid inside the body of the `DO` loop with statement
/// id `loop_id`: [`env_before`] pushed through [`enter_loop`].
#[cfg(test)]
pub(crate) fn env_in_loop(unit: &ProgramUnit, loop_id: StmtId) -> RangeEnv {
    let mut env = env_before(unit, loop_id);
    match unit.body.find_stmt(loop_id).map(|s| s.kind) {
        Some(StmtKind::Do(d)) => enter_loop(&mut env, &d),
        _ => env,
    }
}

/// Add a loop header's facts to an environment, handling negative
/// constant steps by swapping the bounds.
pub fn assume_loop_header(
    env: &mut RangeEnv,
    var: &str,
    init: &Expr,
    limit: &Expr,
    step: Option<&Expr>,
) {
    env.invalidate(var);
    let step_val = step.and_then(|s| s.simplified().as_int()).unwrap_or(1);
    if step_val >= 0 {
        env.assume_nonempty_loop(var, init, limit);
    } else {
        env.assume_nonempty_loop(var, limit, init);
    }
}

// ---- the transfer function ---------------------------------------------
//
// Every pass that carries a `RangeEnv` through a statement list does it
// with the four functions below. The ones that record facts return how
// many, which is what `DdStats::ranges_propagated` counts.

/// Record the unit's `PARAMETER` constants as exact values.
pub(crate) fn seed_parameters(unit: &ProgramUnit, env: &mut RangeEnv) -> u64 {
    let mut seeded = 0;
    for sym in unit.symbols.iter() {
        if let SymKind::Parameter(value) = &sym.kind {
            if let Some(p) = Poly::from_expr(value, DivPolicy::Opaque) {
                env.set_fresh(sym.name.clone(), Range::exact(p));
                seeded += 1;
            }
        }
    }
    seeded
}

/// Move `env` from just before `s` to just after it without looking
/// inside: an assignment kills what mentions its target and records an
/// exact scalar value, `!$ASSERT` tightens, `CALL` kills its by-reference
/// arguments, and a `DO` or `IF` kills whatever its body may assign.
pub(crate) fn step_over(env: &mut RangeEnv, s: &Stmt) -> u64 {
    match &s.kind {
        StmtKind::Assign { lhs, rhs, .. } => {
            let name = lhs.name();
            // An array element store kills whole-array value facts only.
            env.invalidate(name);
            if lhs.subs().is_empty() {
                if let Some(p) = Poly::from_expr(rhs, DivPolicy::Opaque) {
                    if !p.mentions_var(name) {
                        env.set_fresh(name, Range::exact(p));
                        return 1;
                    }
                }
            }
            0
        }
        StmtKind::Assert { cond } => {
            env.assume_cond(cond);
            1
        }
        StmtKind::Call { args, .. } => {
            for a in args {
                match a {
                    Expr::Var(n) => env.invalidate(n),
                    Expr::Index { array, .. } => env.invalidate(array),
                    _ => {}
                }
            }
            0
        }
        StmtKind::Do(d) => {
            kill_loop(env, d);
            0
        }
        StmtKind::IfBlock { arms, else_body } => {
            for body in branches(arms, else_body) {
                kill_assigned(env, body);
            }
            0
        }
        StmtKind::Print { .. } | StmtKind::Return | StmtKind::Stop | StmtKind::Continue => 0,
    }
}

/// Step `env` over the loop `d` and return the environment of its body.
///
/// Invalidate first, enter second: an earlier iteration may already have
/// run, so nothing known before the loop about a variable the body
/// assigns holds inside it. The header then contributes the loop
/// variable's interval and `init <= limit`; those describe the values at
/// loop entry, so whatever they say about a body-assigned variable is
/// killed again.
pub(crate) fn enter_loop(env: &mut RangeEnv, d: &DoLoop) -> RangeEnv {
    let assigned = kill_loop(env, d);
    let mut body = env.clone();
    assume_loop_header(&mut body, &d.var, &d.init, &d.limit, d.step.as_ref());
    for v in &assigned {
        body.invalidate(v);
    }
    #[cfg(test)]
    tests::ENTERED.with(|e| e.borrow_mut().push((d.var.clone(), format!("{body:?}"))));
    body
}

/// Step `env` over an `IF` block and return one environment per branch,
/// in [`branches`] order: each arm's with its condition assumed, the
/// else's with every arm condition that is a simple relation negated.
pub(crate) fn enter_if(env: &mut RangeEnv, arms: &[IfArm], else_body: &StmtList) -> Vec<RangeEnv> {
    let mut else_env = env.clone();
    let mut envs: Vec<RangeEnv> = arms
        .iter()
        .map(|arm| {
            let mut arm_env = env.clone();
            arm_env.assume_cond(&arm.cond);
            if let Expr::Bin { op, lhs, rhs } = &arm.cond {
                if let Some(neg) = op.negate() {
                    else_env.assume_cond(&Expr::bin(neg, (**lhs).clone(), (**rhs).clone()));
                }
            }
            arm_env
        })
        .collect();
    envs.push(else_env);
    for body in branches(arms, else_body) {
        kill_assigned(env, body);
    }
    envs
}

/// The bodies of an `IF` block: every arm's, then the else's.
pub(crate) fn branches<'a>(
    arms: &'a [IfArm],
    else_body: &'a StmtList,
) -> impl Iterator<Item = &'a StmtList> {
    arms.iter().map(|arm| &arm.body).chain(std::iter::once(else_body))
}

fn kill_assigned(env: &mut RangeEnv, list: &StmtList) -> BTreeSet<String> {
    let assigned = assigned_vars(list);
    for v in &assigned {
        env.invalidate(v);
    }
    assigned
}

fn kill_loop(env: &mut RangeEnv, d: &DoLoop) -> BTreeSet<String> {
    env.invalidate(&d.var);
    kill_assigned(env, &d.body)
}

/// Walk `list` applying effects until `target` is reached.
/// Returns true if the target was found (walk stops there).
#[cfg(test)]
fn walk(list: &StmtList, target: StmtId, env: &mut RangeEnv) -> bool {
    for s in list {
        if s.id == target {
            return true;
        }
        let entered = match &s.kind {
            StmtKind::Do(d) if contains(&d.body, target) => Some((enter_loop(env, d), &d.body)),
            StmtKind::IfBlock { arms, else_body } => branches(arms, else_body)
                .enumerate()
                .find(|(_, body)| contains(body, target))
                .map(|(i, body)| (enter_if(env, arms, else_body).swap_remove(i), body)),
            _ => None,
        };
        match entered {
            Some((inner, body)) => {
                *env = inner;
                walk(body, target, env);
                return true;
            }
            None => {
                step_over(env, s);
            }
        }
    }
    false
}

/// Does `list` (recursively) contain statement `target`?
pub fn contains(list: &StmtList, target: StmtId) -> bool {
    let mut found = false;
    list.walk(&mut |s| {
        if s.id == target {
            found = true;
        }
    });
    found
}

/// All variable / array names assigned anywhere within `list`
/// (including loop variables and CALL arguments).
pub fn assigned_vars(list: &StmtList) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    list.walk(&mut |s| match &s.kind {
        StmtKind::Assign { lhs, .. } => {
            out.insert(lhs.name().to_string());
        }
        StmtKind::Do(d) => {
            out.insert(d.var.clone());
        }
        StmtKind::Call { args, .. } => {
            for a in args {
                match a {
                    Expr::Var(n) => {
                        out.insert(n.clone());
                    }
                    Expr::Index { array, .. } => {
                        out.insert(array.clone());
                    }
                    _ => {}
                }
            }
        }
        _ => {}
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_symbolic::{prove_ge, sign, Sign};
    use std::cell::RefCell;

    thread_local! {
        /// Every body environment [`enter_loop`] handed out on this
        /// thread, by loop variable: how the agreement test below sees
        /// what each pass's walk gives its loops.
        pub(super) static ENTERED: RefCell<Vec<(String, String)>> =
            const { RefCell::new(Vec::new()) };
    }

    /// The environments `run` entered the `var` loop with.
    fn entered(var: &str, run: impl FnOnce()) -> Vec<String> {
        ENTERED.with(|e| e.borrow_mut().clear());
        run();
        ENTERED.with(|e| {
            e.borrow().iter().filter(|(v, _)| v == var).map(|(_, env)| env.clone()).collect()
        })
    }

    fn loop_id_of(u: &ProgramUnit, var: &str) -> StmtId {
        let mut id = None;
        u.body.walk(&mut |s| {
            if matches!(&s.kind, StmtKind::Do(d) if d.var == var) {
                id = Some(s.id);
            }
        });
        id.unwrap()
    }

    fn unit_of(src: &str) -> ProgramUnit {
        let full = format!("program t\n{src}\nend\n");
        polaris_ir::parse(&full).unwrap().units.remove(0)
    }

    fn poly(src: &str) -> Poly {
        let u = unit_of(&format!("xtmp = {src}"));
        match &u.body.0[0].kind {
            StmtKind::Assign { rhs, .. } => Poly::from_expr(rhs, DivPolicy::Exact).unwrap(),
            _ => unreachable!(),
        }
    }

    /// Find the first loop's statement id.
    fn first_loop_id(u: &ProgramUnit) -> StmtId {
        let mut id = None;
        u.body.walk(&mut |s| {
            if id.is_none() && matches!(s.kind, StmtKind::Do(_)) {
                id = Some(s.id);
            }
        });
        id.unwrap()
    }

    #[test]
    fn parameters_are_exact() {
        let u = unit_of("integer n\nparameter (n = 64)\ndo i = 1, n\n x = i\nend do");
        let env = env_before(&u, first_loop_id(&u));
        assert_eq!(env.get("N").unwrap().as_exact(), Some(&Poly::int(64)));
    }

    #[test]
    fn figure4_global_defuse_proof() {
        // Paper Figure 4: MP = M*P before the loop; prove MP >= M*P.
        let u = unit_of("mp = m*p\ndo i = 1, 10\n  x = i\nend do");
        let env = env_before(&u, first_loop_id(&u));
        assert!(prove_ge(&poly("mp"), &poly("m*p"), &env));
    }

    #[test]
    fn reassignment_invalidates() {
        let u = unit_of("mp = m*p\nm = m + 1\ndo i = 1, 10\n  x = i\nend do");
        let env = env_before(&u, first_loop_id(&u));
        // M changed after MP's def: the fact MP = M*P (with the *new* M)
        // no longer holds.
        assert!(!prove_ge(&poly("mp"), &poly("m*p"), &env));
    }

    #[test]
    fn loop_body_assignments_kill_prior_facts() {
        let u = unit_of("k = 5\ndo i = 1, 10\n  k = k + 1\n  do j = 1, k\n    x = j\n  end do\nend do");
        // At the inner loop, K is not 5 anymore (earlier iterations of I
        // incremented it).
        let env = env_before(&u, loop_id_of(&u, "J"));
        assert_eq!(env.get("K").and_then(|r| r.as_exact().cloned()), None);
    }

    #[test]
    fn enclosing_loop_gives_range_and_nonemptiness() {
        let u = unit_of("do j = 0, n - 1\n  do k = 0, j - 1\n    x = k\n  end do\nend do");
        let env = env_in_loop(&u, loop_id_of(&u, "K"));
        // Inside the K loop: j >= 0, n >= 1 (outer nonempty), k <= j-1,
        // and the paper's n^2 + n > 0 follows.
        assert_eq!(sign(&poly("n"), &env), Sign::Pos);
        assert_eq!(sign(&poly("n**2 + n"), &env), Sign::Pos);
        assert!(prove_ge(&poly("j"), &poly("k + 1"), &env));
    }

    #[test]
    fn if_condition_assumed_inside_arm() {
        let u = unit_of("if (n > 3) then\n  do i = 1, n\n    x = i\n  end do\nend if");
        let env = env_in_loop(&u, first_loop_id(&u));
        assert!(sign(&poly("n - 4"), &env).is_nonneg());
    }

    #[test]
    fn else_branch_assumes_negation() {
        let u = unit_of("if (n > 3) then\n  y = 1\nelse\n  do i = 1, 2\n    x = i\n  end do\nend if");
        let env = env_in_loop(&u, first_loop_id(&u));
        // on the else path n <= 3
        assert!(sign(&poly("n - 4"), &env).is_neg());
    }

    #[test]
    fn assert_directive_contributes() {
        let u = unit_of("!$assert (m >= 2)\ndo i = 1, m\n  x = i\nend do");
        let env = env_before(&u, first_loop_id(&u));
        assert!(sign(&poly("m - 1"), &env).is_pos());
    }

    #[test]
    fn negative_step_swaps_bounds() {
        let u = unit_of("do i = 10, 2, -2\n  x = i\nend do");
        let env = env_in_loop(&u, first_loop_id(&u));
        assert!(prove_ge(&poly("i"), &poly("2"), &env));
        assert!(prove_ge(&poly("10"), &poly("i"), &env));
    }

    #[test]
    fn call_invalidates_arguments() {
        let u = unit_of("k = 7\ncall mangle(k)\ndo i = 1, 3\n  x = i\nend do");
        let env = env_before(&u, first_loop_id(&u));
        assert_eq!(env.get("K").and_then(|r| r.as_exact().cloned()), None);
    }

    #[test]
    fn trfd_x0_seed() {
        // X0 = 0 before the TRFD nest: exact value visible at the loop.
        let u = unit_of("x0 = 0\ndo i = 0, m - 1\n  x0 = x0 + 1\nend do");
        // before the loop X0 = 0...
        let env = env_before(&u, first_loop_id(&u));
        assert_eq!(env.get("X0").unwrap().as_exact(), Some(&Poly::int(0)));
    }

    #[test]
    fn loop_header_says_nothing_about_what_the_body_assigns() {
        // `1 <= N` held when the J loop was entered; a later iteration
        // runs with the N the previous one stored.
        let u = unit_of("integer ia(9)\ndo j = 1, n\n  do l = 1, n\n    x = l\n  end do\n  n = ia(j)\nend do");
        let env = env_in_loop(&u, loop_id_of(&u, "J"));
        assert_eq!(sign(&poly("n"), &env), Sign::Unknown);
    }

    #[test]
    fn the_walks_hand_every_loop_the_same_environment() {
        // (shape, source, variable of the loop compared)
        let table = [
            ("assignment chain", "m = 4\nmp = m*p\nm2 = mp + 1\ndo i = 1, m2\n  x = i\nend do", "I"),
            (
                "else of a negatable condition",
                "if (n > 3) then\n  y = 1\nelse\n  do i = 1, 2\n    x = n\n  end do\nend if",
                "I",
            ),
            (
                "loop that reassigns a pre-loop fact",
                "integer ia(3)\nn = 5\ndo i = 1, 3\n  do j = 1, n\n    x = j\n  end do\n  n = ia(i)\nend do",
                "J",
            ),
            (
                "call with an out-argument",
                "k = 7\nm = 2\ncall mangle(k)\ndo i = k, m\n  x = i\nend do",
                "I",
            ),
        ];
        for (shape, src, var) in table {
            let u = unit_of(src);
            let want = vec![format!("{:?}", env_in_loop(&u, loop_id_of(&u, var)))];
            let deps = entered(var, || {
                let stats = crate::DdStats::default();
                crate::deps::analyze_unit(&mut u.clone(), &crate::PassOptions::polaris(), &stats);
            });
            assert_eq!(deps, want, "{shape}: deps");
            let induction = entered(var, || {
                crate::induction::run_unit_with(&mut u.clone(), crate::InductionMode::Generalized);
            });
            assert_eq!(induction, want, "{shape}: induction");
        }
    }
}

//! Lowering: resolve names to storage slots and produce an executable
//! form of the main program unit.
//!
//! The machine executes *post-inlining* programs (the pipeline's normal
//! output): any remaining CALL is an error. Intrinsic function calls are
//! lowered to [`Intr`] opcodes. `PARAMETER` values and array dimensions
//! are folded at load time.

use crate::error::MachineError;
use crate::value::{zeroed, ArrData, Scalar, Shape};
use polaris_ir::expr::{is_intrinsic, BinOp, Expr, LValue, RedOp, UnOp};
use polaris_ir::stmt::{Stmt, StmtKind};
use polaris_ir::symbol::SymKind;
use polaris_ir::types::DataType;
use polaris_ir::{Name, Program, ProgramUnit};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Intrinsic opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intr {
    Mod,
    Max,
    Min,
    Abs,
    Sign,
    Sqrt,
    Sin,
    Cos,
    Tan,
    Exp,
    Log,
    Atan,
    Int,
    Nint,
    ToReal,
}

/// Lowered expression.
#[derive(Debug, Clone, PartialEq)]
pub enum RExpr {
    I(i64),
    R(f64),
    B(bool),
    Str(String),
    /// Scalar slot load.
    Load(usize),
    /// Array element load.
    Elem(usize, Vec<RExpr>),
    Un(UnOp, Box<RExpr>),
    Bin(BinOp, Box<RExpr>, Box<RExpr>),
    Intrin(Intr, Vec<RExpr>),
}

impl RExpr {
    /// Does `f` hold for this node or one under it? Pre-order; stops at
    /// the first node `f` answers true for.
    pub fn any(&self, f: &mut dyn FnMut(&RExpr) -> bool) -> bool {
        f(self)
            || match self {
                RExpr::Elem(_, args) | RExpr::Intrin(_, args) => args.iter().any(|a| a.any(f)),
                RExpr::Un(_, x) => x.any(f),
                RExpr::Bin(_, x, y) => x.any(f) || y.any(f),
                RExpr::I(_) | RExpr::R(_) | RExpr::B(_) | RExpr::Str(_) | RExpr::Load(_) => false,
            }
    }
}

/// Lowered reduction target.
#[derive(Debug, Clone)]
pub struct RRed {
    pub op: RedOp,
    /// Scalar slot or array slot being reduced into.
    pub target: RRef,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RRef {
    Scalar(usize),
    Array(usize),
}

/// Lowered parallel annotations.
#[derive(Debug, Clone, Default)]
pub struct RPar {
    pub parallel: bool,
    pub private_scalars: Vec<usize>,
    pub private_arrays: Vec<usize>,
    pub copy_out_scalars: Vec<usize>,
    pub reductions: Vec<RRed>,
    pub spec_arrays: Vec<usize>,
}

/// Lowered loop. Not `Clone`: the image's copy is the only one, shared
/// by `Arc` (see [`RStmt::Do`]).
#[derive(Debug)]
pub struct RLoop {
    pub var: usize,
    pub init: RExpr,
    pub limit: RExpr,
    pub step: Option<RExpr>,
    pub body: Vec<RStmt>,
    pub par: RPar,
    pub label: String,
    /// Compile-time provenance id, carried verbatim from the IR loop
    /// this RLoop was lowered from; the dependence oracle joins its
    /// run-time observations to `CompileReport` verdicts on this key.
    pub loop_id: polaris_ir::stmt::LoopId,
    /// No DO loops inside (codegen model applies here).
    pub(crate) innermost: bool,
    /// Contains an IF (codegen model penalty).
    pub(crate) has_conditional: bool,
    /// Only in-order execution is sound, so the loop is never handed to
    /// real threads: the body contains a STOP at any depth (later
    /// iterations must not run), or it reads an array it speculates on
    /// and contains a DO (a stale value could reach the inner bound).
    pub(crate) in_order: bool,
    /// What a fork may save before its lanes and the fold store into
    /// memory in place, and restore when the join sends the invocation
    /// back to run in order ([`RLoop::saved`]): for a speculation (its PD
    /// test may fail) and a reduction (the validator's lane may hold too
    /// many updates), each array the body may store into but a private
    /// one (a lane has its own). Empty for any other loop.
    pub(crate) rollback: Vec<usize>,
}

impl RLoop {
    /// What a fork of this loop saves: [`RLoop::rollback`] where the join
    /// can refuse — a speculation, and any loop in the validator's run. A
    /// DOALL on threads saves nothing: its join fails only with an error,
    /// which ends the run.
    pub(crate) fn saved(&self, validating: bool) -> &[usize] {
        if self.par.parallel && !validating {
            &[]
        } else {
            &self.rollback
        }
    }
}

/// Lowered statement.
#[derive(Debug, Clone)]
pub enum RStmt {
    AssignS(usize, RExpr),
    AssignE(usize, Vec<RExpr>, RExpr),
    /// The one copy of the loop: the bytecode unit and threaded workers
    /// hold `Arc` clones of it.
    Do(Arc<RLoop>),
    If(Vec<(RExpr, Vec<RStmt>)>, Vec<RStmt>),
    Print(Vec<RExpr>),
    Stop,
}

/// An executable program image.
#[derive(Debug, Clone)]
pub struct Image {
    pub(crate) scalars: Vec<Scalar>,
    pub scalar_names: Vec<Name>,
    /// Each array's name and layout, by slot: the one table the bytecode
    /// unit and every interpreter of the image share.
    pub shapes: Arc<[Shape]>,
    /// Each array's elements, by slot; an interpreter of the image takes
    /// them as its memory.
    pub(crate) arrays: Vec<ArrData>,
    pub code: Vec<RStmt>,
}

/// Pre-order walk over every statement of `code`, descending into loop
/// and IF bodies.
pub fn walk(code: &[RStmt], f: &mut dyn FnMut(&RStmt)) {
    for s in code {
        f(s);
        match s {
            RStmt::Do(l) => walk(&l.body, f),
            RStmt::If(arms, else_body) => {
                arms.iter().for_each(|(_, body)| walk(body, f));
                walk(else_body, f);
            }
            _ => {}
        }
    }
}

struct Lowerer {
    scalar_ids: BTreeMap<Name, usize>,
    array_ids: BTreeMap<Name, usize>,
    scalars: Vec<Scalar>,
    scalar_names: Vec<Name>,
    shapes: Vec<Shape>,
    arrays: Vec<ArrData>,
    params: BTreeMap<Name, Expr>,
}

/// Lower the main unit of `program` into an [`Image`].
pub fn lower(program: &Program) -> Result<Image, MachineError> {
    lower_with_cap(program, None)
}

/// Lower the main unit, refusing to allocate more than `cap` total array
/// elements when a cap is given (the built-in per-array safety limit
/// still applies either way).
pub(crate) fn lower_with_cap(program: &Program, cap: Option<usize>) -> Result<Image, MachineError> {
    let main = program.main().ok_or(MachineError::NoMain)?;
    lower_unit_with_cap(main, cap)
}

/// Lower one unit (normally the inlined main), with an optional cap on
/// total array elements.
pub(crate) fn lower_unit_with_cap(unit: &ProgramUnit, cap: Option<usize>) -> Result<Image, MachineError> {
    let mut l = Lowerer {
        scalar_ids: BTreeMap::new(),
        array_ids: BTreeMap::new(),
        scalars: Vec::new(),
        scalar_names: Vec::new(),
        shapes: Vec::new(),
        arrays: Vec::new(),
        params: BTreeMap::new(),
    };
    // Resolve parameters to literals (bounded chase).
    for sym in unit.symbols.iter() {
        if let SymKind::Parameter(v) = &sym.kind {
            l.params.insert(sym.name.clone(), v.clone());
        }
    }
    for _ in 0..8 {
        let snap = l.params.clone();
        let mut changed = false;
        for v in l.params.values_mut() {
            let new = subst_params(v, &snap).simplified();
            if new != *v {
                *v = new;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Allocate storage.
    let mut allocated: usize = 0;
    for sym in unit.symbols.iter() {
        match &sym.kind {
            SymKind::Scalar => {
                let id = l.scalars.len();
                l.scalar_ids.insert(sym.name.clone(), id);
                l.scalar_names.push(sym.name.clone());
                l.scalars.push(match sym.ty {
                    DataType::Integer => Scalar::I(0),
                    DataType::Real => Scalar::R(0.0),
                    DataType::Logical => Scalar::B(false),
                });
            }
            SymKind::Array(dims) => {
                let mut bounds = Vec::new();
                let mut total: i64 = 1;
                for d in dims {
                    let lo = l
                        .const_eval(&d.lo)
                        .ok_or_else(|| MachineError::NonConstantDims(sym.name.to_string()))?;
                    let hi = l
                        .const_eval(&d.hi)
                        .ok_or_else(|| MachineError::NonConstantDims(sym.name.to_string()))?;
                    let ext = (hi - lo + 1).max(0);
                    bounds.push((lo, ext));
                    total = total.saturating_mul(ext);
                }
                if total > 1 << 28 {
                    return Err(MachineError::Unsupported(format!(
                        "array `{}` too large for the simulator ({total} elements)",
                        sym.name
                    )));
                }
                allocated = allocated.saturating_add(total as usize);
                if let Some(cap) = cap {
                    if allocated > cap {
                        return Err(MachineError::MemoryCapExceeded { need: allocated, cap });
                    }
                }
                let data = match sym.ty {
                    DataType::Integer => ArrData::I(zeroed(total as usize)),
                    DataType::Real => ArrData::R(zeroed(total as usize)),
                    DataType::Logical => ArrData::B(zeroed(total as usize)),
                };
                let id = l.arrays.len();
                l.array_ids.insert(sym.name.clone(), id);
                l.shapes.push(Shape::new(sym.name.clone(), bounds));
                l.arrays.push(data);
            }
            SymKind::Parameter(_) | SymKind::External => {}
        }
    }
    let code = l.lower_list(&unit.body.0)?;
    Ok(Image {
        scalars: l.scalars,
        scalar_names: l.scalar_names,
        shapes: l.shapes.into(),
        arrays: l.arrays,
        code,
    })
}

fn subst_params(e: &Expr, params: &BTreeMap<Name, Expr>) -> Expr {
    e.map(&mut |node| match &node {
        Expr::Var(n) => params.get(n).cloned().unwrap_or(node),
        _ => node,
    })
}

impl Lowerer {
    fn const_eval(&self, e: &Expr) -> Option<i64> {
        subst_params(e, &self.params).simplified().as_int()
    }

    fn scalar_slot(&self, name: &str) -> Result<usize, MachineError> {
        self.scalar_ids
            .get(name)
            .copied()
            .ok_or_else(|| MachineError::Type(format!("unknown scalar `{name}`")))
    }

    fn array_slot(&self, name: &str) -> Result<usize, MachineError> {
        self.array_ids
            .get(name)
            .copied()
            .ok_or_else(|| MachineError::Type(format!("unknown array `{name}`")))
    }

    fn lower_list(&self, stmts: &[Stmt]) -> Result<Vec<RStmt>, MachineError> {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            if let Some(r) = self.lower_stmt(s)? {
                out.push(r);
            }
        }
        Ok(out)
    }

    fn lower_stmt(&self, s: &Stmt) -> Result<Option<RStmt>, MachineError> {
        Ok(Some(match &s.kind {
            StmtKind::Assign { lhs, rhs, .. } => {
                let rhs = self.lower_expr(rhs)?;
                match lhs {
                    LValue::Var(n) => RStmt::AssignS(self.scalar_slot(n)?, rhs),
                    LValue::Index { array, subs } => {
                        let subs = subs
                            .iter()
                            .map(|e| self.lower_expr(e))
                            .collect::<Result<Vec<_>, _>>()?;
                        RStmt::AssignE(self.array_slot(array)?, subs, rhs)
                    }
                }
            }
            StmtKind::Do(d) => {
                let body = self.lower_list(&d.body.0)?;
                let mut innermost = true;
                let mut has_conditional = false;
                let mut has_stop = false;
                d.body.walk(&mut |st| match st.kind {
                    StmtKind::Do(_) => innermost = false,
                    StmtKind::IfBlock { .. } => has_conditional = true,
                    StmtKind::Stop | StmtKind::Return => has_stop = true,
                    _ => {}
                });
                let par = self.lower_par(d)?;
                // A lane of a `SPECULATIVE` loop on real threads reads a
                // pre-loop value where serial execution reads an earlier
                // iteration's store, and the PD test finds that out only
                // after the lane is done. Until then the value must not
                // decide how long the lane runs: through an inner `DO`
                // bound — directly, or by way of a scalar, another array
                // or a branch — it could keep the lane running
                // unboundedly longer than the serial loop when no fuel
                // is set. A body that reads no speculated array sees
                // nothing stale; one without an inner `DO` runs each
                // iteration in bounded time.
                let stale_inner_do =
                    !innermost && !par.spec_arrays.is_empty() && body_reads(&body, &par.spec_arrays);
                let in_order = has_stop || stale_inner_do;
                let mut rollback = Vec::new();
                if !par.spec_arrays.is_empty() || !par.reductions.is_empty() {
                    walk(&body, &mut |s| match s {
                        RStmt::AssignE(a, ..) if !par.private_arrays.contains(a) && !rollback.contains(a) => {
                            rollback.push(*a)
                        }
                        _ => {}
                    });
                }
                RStmt::Do(Arc::new(RLoop {
                    var: self.scalar_slot(&d.var)?,
                    init: self.lower_expr(&d.init)?,
                    limit: self.lower_expr(&d.limit)?,
                    step: d.step.as_ref().map(|e| self.lower_expr(e)).transpose()?,
                    body,
                    par,
                    label: d.label.clone(),
                    loop_id: d.loop_id,
                    innermost,
                    has_conditional,
                    in_order,
                    rollback,
                }))
            }
            StmtKind::IfBlock { arms, else_body } => {
                let mut rarms = Vec::new();
                for arm in arms {
                    rarms.push((self.lower_expr(&arm.cond)?, self.lower_list(&arm.body.0)?));
                }
                RStmt::If(rarms, self.lower_list(&else_body.0)?)
            }
            StmtKind::Call { name, .. } => {
                return Err(MachineError::UnresolvedCall(name.to_string()));
            }
            StmtKind::Print { items } => RStmt::Print(
                items.iter().map(|e| self.lower_expr(e)).collect::<Result<Vec<_>, _>>()?,
            ),
            StmtKind::Stop | StmtKind::Return => RStmt::Stop,
            StmtKind::Continue | StmtKind::Assert { .. } => return Ok(None),
        }))
    }

    fn lower_par(&self, d: &polaris_ir::DoLoop) -> Result<RPar, MachineError> {
        let mut par = RPar {
            parallel: d.par.parallel,
            ..Default::default()
        };
        for name in &d.par.private {
            if let Ok(id) = self.scalar_slot(name) {
                par.private_scalars.push(id);
            } else {
                par.private_arrays.push(self.array_slot(name)?);
            }
        }
        for name in &d.par.copy_out {
            par.copy_out_scalars.push(self.scalar_slot(name)?);
        }
        for red in &d.par.reductions {
            let target = if let Ok(id) = self.scalar_slot(&red.var) {
                RRef::Scalar(id)
            } else {
                RRef::Array(self.array_slot(&red.var)?)
            };
            par.reductions.push(RRed { op: red.op, target });
        }
        // Mutually exclusive with `parallel`: a proved loop tracks nothing.
        if let (false, Some(spec)) = (d.par.parallel, &d.par.speculative) {
            for name in &spec.tracked {
                par.spec_arrays.push(self.array_slot(name)?);
            }
        }
        Ok(par)
    }

    /// Lower an expression: parameters folded, constants simplified.
    fn lower_expr(&self, e: &Expr) -> Result<RExpr, MachineError> {
        let folded = subst_params(e, &self.params).simplified();
        self.lower_expr_raw(&folded)
    }

    fn lower_expr_raw(&self, e: &Expr) -> Result<RExpr, MachineError> {
        Ok(match e {
            Expr::Int(v) => RExpr::I(*v),
            Expr::Real(v) => RExpr::R(*v),
            Expr::Logical(v) => RExpr::B(*v),
            Expr::Str(s) => RExpr::Str(s.clone()),
            Expr::Var(n) => RExpr::Load(self.scalar_slot(n)?),
            Expr::Index { array, subs } => RExpr::Elem(
                self.array_slot(array)?,
                subs.iter().map(|s| self.lower_expr_raw(s)).collect::<Result<Vec<_>, _>>()?,
            ),
            Expr::Call { name, args } => {
                if !is_intrinsic(name) {
                    return Err(MachineError::UnresolvedCall(name.to_string()));
                }
                let intr = match &**name {
                    "MOD" => Intr::Mod,
                    "MAX" | "MAX0" | "AMAX1" | "DMAX1" => Intr::Max,
                    "MIN" | "MIN0" | "AMIN1" | "DMIN1" => Intr::Min,
                    "ABS" | "IABS" => Intr::Abs,
                    "SIGN" => Intr::Sign,
                    "SQRT" => Intr::Sqrt,
                    "SIN" => Intr::Sin,
                    "COS" => Intr::Cos,
                    "TAN" => Intr::Tan,
                    "EXP" => Intr::Exp,
                    "LOG" => Intr::Log,
                    "ATAN" => Intr::Atan,
                    "INT" => Intr::Int,
                    "NINT" => Intr::Nint,
                    "REAL" | "DBLE" | "FLOAT" => Intr::ToReal,
                    other => {
                        return Err(MachineError::Unsupported(format!("intrinsic `{other}`")))
                    }
                };
                RExpr::Intrin(
                    intr,
                    args.iter().map(|a| self.lower_expr_raw(a)).collect::<Result<Vec<_>, _>>()?,
                )
            }
            Expr::Un { op, arg } => RExpr::Un(*op, Box::new(self.lower_expr_raw(arg)?)),
            Expr::Bin { op, lhs, rhs } => RExpr::Bin(
                *op,
                Box::new(self.lower_expr_raw(lhs)?),
                Box::new(self.lower_expr_raw(rhs)?),
            ),
            Expr::Wildcard(_) => {
                return Err(MachineError::Unsupported("wildcard in program".into()))
            }
        })
    }
}

/// Does executing `stmts` read one of `arrays`, anywhere?
fn body_reads(stmts: &[RStmt], arrays: &[usize]) -> bool {
    let reads = |e: &RExpr| e.any(&mut |x| matches!(x, RExpr::Elem(a, _) if arrays.contains(a)));
    let mut found = false;
    walk(stmts, &mut |s| {
        found = found
            || match s {
                RStmt::AssignS(_, rhs) => reads(rhs),
                RStmt::AssignE(_, subs, rhs) => subs.iter().any(reads) || reads(rhs),
                RStmt::Do(l) => {
                    reads(&l.init) || reads(&l.limit) || l.step.as_ref().is_some_and(reads)
                }
                RStmt::If(arms, _) => arms.iter().any(|(cond, _)| reads(cond)),
                RStmt::Print(items) => items.iter().any(reads),
                RStmt::Stop => false,
            }
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image_of(src: &str) -> Image {
        let p = polaris_ir::parse(src).unwrap();
        lower(&p).unwrap()
    }

    #[test]
    fn storage_allocation() {
        let img = image_of(
            "program t\ninteger n\nparameter (n = 4)\nreal a(n, 2*n)\ninteger k\nk = 1\na(1,1) = 0.0\nend\n",
        );
        assert_eq!((img.shapes.len(), img.arrays.len()), (1, 1));
        let extents: Vec<i64> = img.shapes[0].dims.iter().map(|d| d.extent).collect();
        assert_eq!(extents, [4, 8]);
        assert!(img.scalar_names.contains(&"K".into()));
    }

    #[test]
    fn nonconstant_dims_rejected() {
        let p = polaris_ir::parse("program t\nreal a(n)\na(1) = 0.0\nend\n").unwrap();
        assert!(matches!(lower(&p), Err(MachineError::NonConstantDims(_))));
    }

    #[test]
    fn call_rejected() {
        let p = polaris_ir::parse("program t\ncall f(x)\nend\n").unwrap();
        assert!(matches!(lower(&p), Err(MachineError::UnresolvedCall(_))));
    }

    #[test]
    fn intrinsics_lowered() {
        let img = image_of("program t\nx = sqrt(abs(y)) + mod(k, 3)\nend\n");
        // one assignment
        assert_eq!(img.code.len(), 1);
    }

    #[test]
    fn parameters_fold_in_expressions() {
        let img = image_of("program t\ninteger n\nparameter (n = 10)\nk = n + 1\nend\n");
        match &img.code[0] {
            RStmt::AssignS(_, RExpr::I(11)) => {}
            other => panic!("expected folded literal, got {other:?}"),
        }
    }

    #[test]
    fn loop_metadata() {
        let img = image_of(
            "program t\nreal a(10)\ndo i = 1, 10\n  if (a(i) > 0.0) then\n    a(i) = 0.0\n  end if\nend do\nend\n",
        );
        match &img.code[0] {
            RStmt::Do(l) => {
                assert!(l.innermost);
                assert!(l.has_conditional);
                assert!(!l.in_order);
            }
            _ => panic!(),
        }
        // A STOP at any depth marks every loop around it.
        let img = image_of(
            "program t\nreal a(10)\ndo i = 1, 10\n  do j = 1, 10\n    if (a(j) > 0.0) then\n      stop\n    end if\n  end do\nend do\ndo k = 1, 10\n  a(k) = 0.0\nend do\nend\n",
        );
        match &img.code[..] {
            [RStmt::Do(outer), RStmt::Do(after)] => {
                assert!(outer.in_order && !outer.innermost);
                assert!(matches!(&outer.body[0], RStmt::Do(inner) if inner.in_order));
                assert!(!after.in_order);
            }
            _ => panic!(),
        }
    }

    /// A `SPECULATIVE` loop stays in order when a value read from a
    /// speculated array could reach an inner `DO` bound — directly, or by
    /// way of a scalar, an array or a branch, which is why reading one at
    /// all beside an inner loop is enough. Nests that only store to the
    /// speculated arrays, and bodies without an inner loop, go to threads.
    #[test]
    fn reading_a_speculated_array_beside_an_inner_do_keeps_the_loop_in_order() {
        let in_order = |body: &str| {
            let src = format!(
                "program t\nreal a(64), b(64)\ninteger cnt(64), key(64)\n!$polaris doall speculative(A, CNT)\ndo i = 1, 64\n{body}end do\nend\n"
            );
            match &image_of(&src).code[0] {
                RStmt::Do(l) => l.in_order,
                other => panic!("{other:?}"),
            }
        };
        assert!(!in_order("a(key(i)) = a(key(i)) + 1.0\n"), "no inner loop");
        assert!(!in_order("do j = 1, key(i)\n  a(key(j)) = b(j)\nend do\n"), "a nest that only stores to A");
        assert!(in_order("do j = 1, cnt(i)\n  b(j) = 1.0\nend do\n"), "a bound reads CNT");
        assert!(in_order("m = cnt(i)\ndo j = 1, m\n  b(j) = 1.0\nend do\n"), "through a scalar");
        assert!(in_order("do j = 1, m\n  b(j) = 1.0\nend do\nm = cnt(i)\n"), "carried to the next iteration");
        assert!(
            in_order("if (a(i) > 0.0) then\n  do j = 1, 8\n    b(j) = 1.0\n  end do\nend if\n"),
            "a stale branch around an inner loop"
        );
        assert!(in_order("do j = 1, 8\n  b(cnt(j)) = 1.0\nend do\n"), "read in a subscript, inside the inner loop");
    }

    /// What a fork saves is what the lanes and the fold may store into but
    /// a private array, and only for a loop the join can send back to run
    /// in order: a speculation, and a reduction in the validator's run.
    #[test]
    fn a_loop_the_join_can_send_back_saves_the_shared_arrays_it_stores_into() {
        let saved = |annotation: &str, validating: bool| -> Vec<Name> {
            let src = format!(
                "program t\nreal a(8), b(8), c(8), h(8)\ninteger key(8)\n{annotation}\ndo i = 1, 8\n  c(1) = i * 1.0\n  a(key(i)) = c(1)\n  if (i > 4) then\n    b(i) = a(i)\n  end if\n  h(key(i)) = h(key(i)) + 1.0\n  s = s + b(i)\nend do\nend\n"
            );
            let img = image_of(&src);
            match &img.code[0] {
                RStmt::Do(l) => l.saved(validating).iter().map(|&a| img.shapes[a].name.clone()).collect(),
                other => panic!("{other:?}"),
            }
        };
        for validating in [false, true] {
            assert!(saved("!$polaris doall private(C)", validating).is_empty(), "a DOALL never goes back");
        }
        assert!(saved("!$polaris doall private(C) reduction(+:S)", false).is_empty(), "nor one that reduces");
        assert_eq!(saved("!$polaris doall private(C) reduction(+:S)", true), ["A", "B", "H"]);
        assert_eq!(saved("!$polaris doall private(C) reduction(+:S, +:H)", true), ["A", "B", "H"]);
        for validating in [false, true] {
            assert_eq!(saved("!$polaris doall speculative(A)", validating), ["C", "A", "B", "H"]);
        }
    }

    #[test]
    fn par_annotations_lowered() {
        let src = "program t\nreal a(10), s\n!$polaris doall private(T) reduction(+:S) lastprivate(T)\ndo i = 1, 10\n  t = a(i)\n  s = s + t\nend do\nend\n";
        let img = image_of(src);
        match &img.code[0] {
            RStmt::Do(l) => {
                assert!(l.par.parallel);
                assert_eq!(l.par.private_scalars.len(), 1);
                assert_eq!(l.par.copy_out_scalars.len(), 1);
                assert_eq!(l.par.reductions.len(), 1);
            }
            _ => panic!(),
        }
    }
}

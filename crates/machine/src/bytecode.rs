//! Bytecode lowering: the compact executable form of an F-Mini unit.
//!
//! The tree-walking interpreter in [`crate::exec`] re-traverses the
//! boxed [`RExpr`]/[`RStmt`] tree on every statement execution, paying a
//! pointer chase per node, a dynamic type dispatch per value and a
//! recursive call per sub-expression. This module lowers an [`Image`]
//! once into a flat *typed* register machine program the VM
//! (`crate::vm`) can dispatch over with a plain `match` per
//! instruction:
//!
//! * **Typed instructions** — F-Mini is statically typed (every scalar
//!   slot and array keeps one of `I`/`R`/`B` for its whole life), so the
//!   compiler infers the type of every sub-expression and emits
//!   specialized opcodes (`add.r`, `ld.s.i`, …) that operate on raw
//!   64-bit registers with no run-time tag dispatch. Numeric promotion
//!   (`I op R`) compiles to an explicit charge-free conversion.
//! * **Interned symbols** — PRINT string literals live in one
//!   `Interner` and instructions carry `u32` symbols; an element access
//!   carries its array's slot.
//! * **Flat instruction stream with an explicit jump table** — each
//!   [`BcBlock`] is a `Vec<Instr>` plus a `labels` table mapping label
//!   ids to instruction addresses. Forward branches are emitted against
//!   fresh labels and resolved by binding the label after the target is
//!   known.
//! * **Shared array layouts and fused subscripts** — the unit holds the
//!   image's shape table ([`Image::shapes`]: per dimension the lower
//!   bound, extent and column-major stride lowering derived once), and
//!   an element access flattens through the `Shape::flatten` the
//!   tree-walker calls; the common subscript shapes (`i`, `i±k`,
//!   literal) are fused into the element access itself as `SubSrc`
//!   descriptors, so `a(i,j+1)` is *one* instruction, not five.
//! * **Register-allocated temporaries** — expression temporaries live in
//!   a per-block `u64` frame (`f64` values are bit-cast). Allocation is
//!   stack-shaped: an expression compiled into register `d` may scratch
//!   only registers `> d`. Registers never live across a statement
//!   boundary — loop state lives on the interpreter's loop-frame stack,
//!   not in registers — which lets activations reuse frames without
//!   re-initializing them and one frame serve a whole activation, the
//!   loops it runs in-stream included.
//!
//! A `DO` compiles *into its parent's stream*: [`Instr::LoopEnter`], the
//! body inline, [`Instr::LoopBack`]. The body exists once — a unit is one
//! block whatever its nesting depth — and serves both ways a loop can
//! run. What is shared with the tree-walker is everything decided once
//! per invocation, through the same three functions of `exec`: the
//! prologue (`Interp::loop_prologue` — bounds evaluated once through
//! `eval`, the analytic fuel pre-check, stats, oracle frame, span), the
//! mode decision (`Interp::dispatch_mode` — serial, or one of the
//! concurrent, adaptive and adversarial arms, which both engines run
//! unchanged on both backends) and the epilogue (`Interp::loop_epilogue`
//! — per-loop cycles, the F77 exit value), so the engines' scheduling
//! decisions cannot diverge. What is not shared is how a serial
//! invocation iterates: the tree-walker calls its statement list per
//! iteration, the VM takes the back-edge inside its dispatch loop. The
//! decision is per invocation, not per annotation — most iterations of
//! `PARALLEL` loops run serially (one processor, or already inside a
//! lane) — which is why it sits in the instruction stream. An arm runs
//! an iteration as a *range* of the same stream: from the body's first
//! instruction until the loop-back, which returns to the caller when the
//! activation opened no loop frame for it.
//!
//! Anything the type inference cannot prove (a `B` operand reaching
//! arithmetic, a string outside PRINT, a wrong intrinsic arity — all of
//! which are *run-time* errors in F-Mini) compiles to [`Instr::Exec`],
//! which hands that single statement to the tree-walker itself. The
//! fallback is parity-correct by construction and only ever cold.
//!
//! Cost/fuel parity with the tree-walker is part of this module's
//! contract: a [`Instr::Step`] is emitted at every statement boundary
//! (where `run_stmt` calls `charge_step`), and every value-producing
//! instruction charges exactly the cycles its tree-walk counterpart
//! does — including the *data-dependent* charges (integer divide by a
//! power of two costs `alu`, `x**k` for small integer `k` costs `k`
//! multiplies), which stay run-time checks in the typed VM.
//! `tests/vm_equivalence.rs` holds both engines to bit-identical
//! output, cycles and final memory.

use crate::error::MachineError;
use crate::lower::{Image, Intr, RExpr, RLoop, RStmt};
use crate::value::{ArrData, Scalar, Shape};
use polaris_ir::expr::BinOp;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// A VM register index within a block frame.
pub(crate) type Reg = u16;
/// An index into a block's jump table ([`BcBlock::labels`]).
pub(crate) type Label = u16;

/// An interned PRINT string literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Sym(pub(crate) u32);

/// Append-only string interner: each distinct string gets one `u32` id;
/// `intern` is idempotent and `resolve` is an array index.
#[derive(Debug, Clone, Default)]
pub(crate) struct Interner {
    names: Vec<String>,
    map: BTreeMap<String, u32>,
}

impl Interner {
    pub(crate) fn intern(&mut self, s: &str) -> Sym {
        if let Some(&id) = self.map.get(s) {
            return Sym(id);
        }
        let id = self.names.len() as u32;
        self.names.push(s.to_string());
        self.map.insert(s.to_string(), id);
        Sym(id)
    }

    pub(crate) fn resolve(&self, sym: Sym) -> &str {
        &self.names[sym.0 as usize]
    }

    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }
}

/// One subscript of a fused element access, stored in the unit's
/// subscript pool ([`BcUnit::subs`]). The first two forms read an
/// already-evaluated register; the rest are fused directly into the
/// access and charge exactly what their tree-walk expansion charges
/// (`Slot` = one scalar read; `SlotOff` = a scalar read plus one `alu`
/// add; `Imm` = a literal, charge-free). A single access uses either
/// all-register or all-fused subscripts, never a mix, so the charge and
/// error order matches the tree-walker's strict left-to-right
/// evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum SubSrc {
    /// Integer subscript computed into a register.
    RegI(Reg),
    /// Real subscript computed into a register; truncated like `V::as_i`.
    RegR(Reg),
    /// Scalar slot read directly.
    Slot(u32),
    /// Scalar slot plus a literal offset (`i+1`, `j-2`, `1+i`).
    SlotOff(u32, i32),
    /// Literal subscript.
    Imm(i32),
}

/// One item of a PRINT statement: a typed register holding an evaluated
/// value or an interned string literal (strings are never evaluated).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrintItem {
    RegI(Reg),
    RegR(Reg),
    RegB(Reg),
    Str(Sym),
}

/// The typed instruction set. Registers are raw 64-bit slots in the
/// block frame: `.i` opcodes treat them as `i64`, `.r` as `f64` bits,
/// `.b` as `0`/`1`. `dst`-style registers are written, everything else
/// is read. Cycle charges are noted where the VM charges them
/// (mirroring the tree-walker).
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Charge one unit of execution fuel (statement boundary).
    Step,
    /// `r[dst] = literal` (literals charge no cycles, as in the tree).
    LitI(Reg, i64),
    LitR(Reg, f64),
    LitB(Reg, bool),
    /// `r[dst] = scalars[slot]` — charges `cost.scalar`.
    LoadI(Reg, u32),
    LoadR(Reg, u32),
    LoadB(Reg, u32),
    /// `scalars[slot] = r[src]` — charges `cost.scalar`. The value is
    /// already converted to the slot's type (see `IToR`/`RToI`).
    StoreI(u32, Reg),
    StoreR(u32, Reg),
    StoreB(u32, Reg),
    /// Numeric conversions (charge-free — the tree-walker's promotions
    /// and Fortran assignment conversions charge nothing).
    IToR(Reg, Reg),
    /// `f64 as i64` truncation, as `V::as_i` does it.
    RToI(Reg, Reg),
    /// `r[dst] = arrays[arr][flatten(subs)]` — subscripts come from the
    /// pool window `subs..subs+n`; charges each subscript's cost, then
    /// `cost.memory`.
    LoadEI { dst: Reg, arr: u32, sub: u32, n: u8 },
    LoadER { dst: Reg, arr: u32, sub: u32, n: u8 },
    LoadEB { dst: Reg, arr: u32, sub: u32, n: u8 },
    /// `arrays[arr][flatten(subs)] = r[src]` — same charges plus
    /// `cost.memory`; the value is already converted to the element type.
    StoreEI { arr: u32, src: Reg, sub: u32, n: u8 },
    StoreER { arr: u32, src: Reg, sub: u32, n: u8 },
    StoreEB { arr: u32, src: Reg, sub: u32, n: u8 },
    /// Integer arithmetic (wrapping, as `eval_binop`): `alu`/`alu`/`mul`.
    AddI(Reg, Reg, Reg),
    SubI(Reg, Reg, Reg),
    MulI(Reg, Reg, Reg),
    /// Integer divide: `alu` when the divisor is a positive power of
    /// two, else `div` (run-time check — the charge is data-dependent);
    /// `DivByZero` on zero.
    DivI(Reg, Reg, Reg),
    /// Integer power: `mul*k` for `0 <= k <= 3`, else `intrinsic`
    /// (run-time check on the exponent value).
    PowI(Reg, Reg, Reg),
    /// Real arithmetic: `alu`/`alu`/`mul`/`div`/`intrinsic`.
    AddR(Reg, Reg, Reg),
    SubR(Reg, Reg, Reg),
    MulR(Reg, Reg, Reg),
    DivR(Reg, Reg, Reg),
    PowR(Reg, Reg, Reg),
    /// Real base, *integer-typed* exponent/divisor: the data-dependent
    /// charge checks read the integer before it is promoted.
    DivRI(Reg, Reg, Reg),
    PowRI(Reg, Reg, Reg),
    /// `r[dst] = -r[src]` / logical not — charge `alu`.
    NegI(Reg, Reg),
    NegR(Reg, Reg),
    NotB(Reg, Reg),
    /// Comparisons (result is a `0`/`1` logical) — charge `alu`.
    CmpI(BinOp, Reg, Reg, Reg),
    CmpR(BinOp, Reg, Reg, Reg),
    /// Logical and/or (both operands already evaluated, as in the
    /// tree-walker — F-Mini has no short-circuit) — charge `alu`.
    AndB(Reg, Reg, Reg),
    OrB(Reg, Reg, Reg),
    /// `r[dst] = intr(r[dst..dst+n])` — args are uniformly converted by
    /// the compiler when `real`; charges `cost.mul` for cheap
    /// intrinsics, `cost.intrinsic` otherwise.
    Intrin { intr: Intr, dst: Reg, n: u8, real: bool },
    /// Charge `cost.branch` (one IF arm is about to be tested).
    Branch,
    /// Unconditional jump through the block's label table.
    Jump(Label),
    /// Jump when the logical in `r[cond]` is false.
    JumpIfNot(Reg, Label),
    /// Emit one output line from evaluated registers and literals.
    Print(Box<[PrintItem]>),
    /// Enter loop `loops[lp]`: the shared prologue and mode decision. A
    /// serial invocation opens a loop frame and falls into the body (or
    /// jumps to `exit` on zero trips); any other runs to completion in
    /// its orchestration arm and continues at `exit`, the address after
    /// the matching [`Instr::LoopBack`].
    LoopEnter { lp: u32, exit: u32 },
    /// End of the body of `loops[lp]`. With the loop's frame open: next
    /// iteration (fuel step, `cost.loop_iter`, codegen rescale, loop
    /// variable) and back to `body`, or the epilogue and fall through.
    /// With no frame of this activation open, the stream is being run as
    /// one iteration's range: return to the arm that called.
    LoopBack { lp: u32, body: u32 },
    /// STOP: run the epilogues of this activation's open loops,
    /// innermost first, and return `Flow::Stop`.
    Stop,
    /// Type-inference fallback: run `stmts[i]` through the tree-walker
    /// (`exec::run_stmt`). Used for statements whose legality is only
    /// decidable at run time (logical operands in arithmetic, strings
    /// outside PRINT, bad intrinsic arity); `run_stmt` charges its own
    /// fuel step, so no `Step` precedes this.
    Exec(u32),
    /// End of block (fallthrough return with `Flow::Normal`).
    Halt,
}

/// One compiled statement list: a flat instruction stream plus its jump
/// table and the register-frame size dispatch must provide.
#[derive(Debug, Clone)]
pub struct BcBlock {
    pub code: Vec<Instr>,
    /// Label id → instruction address. Every `Jump`/`JumpIfNot` target
    /// resolves through this table.
    pub(crate) labels: Vec<u32>,
    pub(crate) max_regs: usize,
}

/// A fully lowered unit: its code as one [`BcBlock`] (loop bodies are
/// inline), the loop descriptors (shared with the orchestration layer),
/// the image's array shapes, the subscript pool, fallback statements and
/// the symbol interner.
#[derive(Debug, Clone)]
pub struct BcUnit {
    /// Block executed for the unit's code.
    pub(crate) entry: u32,
    pub blocks: Vec<BcBlock>,
    /// `loops[lp].0` is the loop [`Instr::LoopEnter`]/[`Instr::LoopBack`]
    /// `lp` delimit, `loops[lp].1` the address of its body's first
    /// instruction in the entry block.
    pub(crate) loops: Vec<(Arc<RLoop>, u32)>,
    /// The image's table of array names and layouts ([`Image::shapes`]).
    pub(crate) shapes: Arc<[Shape]>,
    pub(crate) interner: Interner,
    /// Fused-subscript pool; element accesses reference windows of it.
    pub(crate) subs: Vec<SubSrc>,
    /// Statements `Instr::Exec` hands back to the tree-walker.
    pub(crate) stmts: Vec<RStmt>,
}

/// Static type of a slot, array or expression. F-Mini never retypes
/// storage, so these are sound for the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    I,
    R,
    B,
}

impl Ty {
    fn numeric(self) -> bool {
        self != Ty::B
    }
}

/// Compile an [`Image`] to bytecode. Infallible for any program the
/// tree-walker can run except pathological register pressure (an
/// expression nested >65k deep), reported as `Unsupported`.
pub fn compile(image: &Image) -> Result<BcUnit, MachineError> {
    compile_with(image, false)
}

/// [`compile`] with the step-boundary instructions elided. Only valid
/// when the run configuration cannot observe the step count (no fuel
/// limit, no cancel token, no panic-at-step hook —
/// `Interp::quiet_steps`): [`Instr::Step`] is then a guaranteed no-op,
/// so the compiler drops it from the stream instead of dispatching it
/// per statement. Tree-walker fallbacks (`Instr::Exec`) still count
/// steps inside `run_stmt`; that is equally unobservable under the same
/// precondition.
pub(crate) fn compile_quiet(image: &Image) -> Result<BcUnit, MachineError> {
    compile_with(image, true)
}

fn compile_with(image: &Image, quiet: bool) -> Result<BcUnit, MachineError> {
    let slot_ty = image
        .scalars
        .iter()
        .map(|s| match s {
            Scalar::I(_) => Ty::I,
            Scalar::R(_) => Ty::R,
            Scalar::B(_) => Ty::B,
        })
        .collect();
    let arr_ty = image
        .arrays
        .iter()
        .map(|a| match a {
            ArrData::I(_) => Ty::I,
            ArrData::R(_) => Ty::R,
            ArrData::B(_) => Ty::B,
        })
        .collect();
    let mut c = Compiler {
        unit: BcUnit {
            entry: 0,
            blocks: Vec::new(),
            loops: Vec::new(),
            shapes: Arc::clone(&image.shapes),
            interner: Interner::default(),
            subs: Vec::new(),
            stmts: Vec::new(),
        },
        slot_ty,
        arr_ty,
        quiet,
    };
    let mut b = BlockBuilder::new();
    c.stmts(&mut b, &image.code)?;
    b.code.push(Instr::Halt);
    debug_assert!(b.labels.iter().all(|&a| a != u32::MAX), "unbound label");
    c.unit.blocks.push(BcBlock { code: b.code, labels: b.labels, max_regs: b.max_regs });
    Ok(c.unit)
}

struct Compiler {
    unit: BcUnit,
    slot_ty: Vec<Ty>,
    arr_ty: Vec<Ty>,
    /// Elide [`Instr::Step`] (see [`compile_quiet`]).
    quiet: bool,
}

/// In-progress block: instructions, unresolved label table, high-water
/// register count.
struct BlockBuilder {
    code: Vec<Instr>,
    labels: Vec<u32>,
    max_regs: usize,
}

impl BlockBuilder {
    fn new() -> BlockBuilder {
        BlockBuilder { code: Vec::new(), labels: Vec::new(), max_regs: 0 }
    }

    fn new_label(&mut self) -> Label {
        self.labels.push(u32::MAX);
        (self.labels.len() - 1) as Label
    }

    fn bind(&mut self, l: Label) {
        self.labels[l as usize] = self.code.len() as u32;
    }

    /// Record that registers `..=hi` are used by this block.
    fn touch(&mut self, hi: usize) -> Result<(), MachineError> {
        if hi >= Reg::MAX as usize {
            return Err(MachineError::Unsupported(
                "expression exceeds the VM register frame".into(),
            ));
        }
        self.max_regs = self.max_regs.max(hi + 1);
        Ok(())
    }
}

impl Compiler {
    fn stmts(&mut self, b: &mut BlockBuilder, list: &[RStmt]) -> Result<(), MachineError> {
        for s in list {
            self.stmt(b, s)?;
        }
        Ok(())
    }

    // ---- type inference -------------------------------------------------

    /// The static type of `e`, or `None` when evaluation can reach a
    /// run-time type error (which must surface through the tree-walker
    /// fallback with its exact charge order and message).
    fn ty(&self, e: &RExpr) -> Option<Ty> {
        use polaris_ir::expr::UnOp;
        match e {
            RExpr::I(_) => Some(Ty::I),
            RExpr::R(_) => Some(Ty::R),
            RExpr::B(_) => Some(Ty::B),
            RExpr::Str(_) => None,
            RExpr::Load(s) => Some(self.slot_ty[*s]),
            RExpr::Elem(a, subs) => {
                for s in subs {
                    if !self.ty(s)?.numeric() {
                        return None;
                    }
                }
                Some(self.arr_ty[*a])
            }
            RExpr::Un(UnOp::Neg, x) => self.ty(x).filter(|t| t.numeric()),
            RExpr::Un(UnOp::Not, x) => self.ty(x).filter(|t| *t == Ty::B),
            RExpr::Bin(op, l, r) => {
                let (a, b) = (self.ty(l)?, self.ty(r)?);
                match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Pow => {
                        (a.numeric() && b.numeric())
                            .then(|| if a == Ty::R || b == Ty::R { Ty::R } else { Ty::I })
                    }
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne => {
                        (a.numeric() && b.numeric()).then_some(Ty::B)
                    }
                    BinOp::And | BinOp::Or => (a == Ty::B && b == Ty::B).then_some(Ty::B),
                }
            }
            RExpr::Intrin(intr, args) => {
                let tys: Vec<Ty> = args.iter().map(|a| self.ty(a)).collect::<Option<_>>()?;
                if tys.iter().any(|t| !t.numeric()) {
                    return None;
                }
                let real = tys.contains(&Ty::R);
                match intr {
                    Intr::Sqrt
                    | Intr::Sin
                    | Intr::Cos
                    | Intr::Tan
                    | Intr::Exp
                    | Intr::Log
                    | Intr::Atan => (tys.len() == 1).then_some(Ty::R),
                    Intr::ToReal => (tys.len() == 1).then_some(Ty::R),
                    Intr::Int | Intr::Nint => (tys.len() == 1).then_some(Ty::I),
                    Intr::Abs => (tys.len() == 1).then_some(tys[0]),
                    Intr::Mod | Intr::Sign => {
                        (tys.len() == 2).then_some(if real { Ty::R } else { Ty::I })
                    }
                    Intr::Max | Intr::Min => {
                        (!tys.is_empty()).then_some(if real { Ty::R } else { Ty::I })
                    }
                }
            }
        }
    }

    /// Can `value` be assigned to storage of type `target` without a
    /// possible run-time error? (Numeric↔numeric converts; B↔B copies.)
    fn assignable(value: Ty, target: Ty) -> bool {
        (value.numeric() && target.numeric()) || (value == Ty::B && target == Ty::B)
    }

    /// Does the whole statement type-check? Bodies of IF arms are *not*
    /// required to: each inner statement falls back individually.
    fn stmt_types_ok(&self, s: &RStmt) -> bool {
        match s {
            RStmt::AssignS(slot, rhs) => {
                self.ty(rhs).is_some_and(|t| Self::assignable(t, self.slot_ty[*slot]))
            }
            RStmt::AssignE(arr, subs, rhs) => {
                self.ty(rhs).is_some_and(|t| Self::assignable(t, self.arr_ty[*arr]))
                    && subs.iter().all(|s| self.ty(s).is_some_and(Ty::numeric))
            }
            RStmt::Do(_) | RStmt::Stop => true,
            RStmt::If(arms, _) => arms.iter().all(|(c, _)| self.ty(c) == Some(Ty::B)),
            RStmt::Print(items) => items
                .iter()
                .all(|i| matches!(i, RExpr::Str(_)) || self.ty(i).is_some()),
        }
    }

    // ---- statement compilation ------------------------------------------

    fn stmt(&mut self, b: &mut BlockBuilder, s: &RStmt) -> Result<(), MachineError> {
        if !self.stmt_types_ok(s) {
            // Tree-walker fallback; `run_stmt` charges its own step.
            let id = self.unit.stmts.len() as u32;
            self.unit.stmts.push(s.clone());
            b.code.push(Instr::Exec(id));
            return Ok(());
        }
        // Fuel boundary: `run_stmt` charges a step before anything else.
        if !self.quiet {
            b.code.push(Instr::Step);
        }
        match s {
            RStmt::AssignS(slot, rhs) => {
                let t = self.expr(b, rhs, 0)?;
                let target = self.slot_ty[*slot];
                self.convert(b, 0, t, target);
                b.code.push(match target {
                    Ty::I => Instr::StoreI(*slot as u32, 0),
                    Ty::R => Instr::StoreR(*slot as u32, 0),
                    Ty::B => Instr::StoreB(*slot as u32, 0),
                });
            }
            RStmt::AssignE(arr, subs, rhs) => {
                // rhs first, then subscripts — the tree-walker's error
                // order for a failing rhs vs a failing subscript.
                let t = self.expr(b, rhs, 0)?;
                let target = self.arr_ty[*arr];
                self.convert(b, 0, t, target);
                let (sub, n) = self.subs(b, subs, 1)?;
                let (arr, src) = (*arr as u32, 0);
                b.code.push(match target {
                    Ty::I => Instr::StoreEI { arr, src, sub, n },
                    Ty::R => Instr::StoreER { arr, src, sub, n },
                    Ty::B => Instr::StoreEB { arr, src, sub, n },
                });
            }
            RStmt::Do(l) => {
                let lp = self.unit.loops.len() as u32;
                let enter = b.code.len();
                let body = enter as u32 + 1;
                self.unit.loops.push((Arc::clone(l), body));
                b.code.push(Instr::LoopEnter { lp, exit: u32::MAX });
                self.stmts(b, &l.body)?;
                b.code.push(Instr::LoopBack { lp, body });
                b.code[enter] = Instr::LoopEnter { lp, exit: b.code.len() as u32 };
            }
            RStmt::If(arms, else_body) => {
                let end = b.new_label();
                for (cond, body) in arms {
                    b.code.push(Instr::Branch);
                    self.expr(b, cond, 0)?;
                    let next = b.new_label();
                    b.code.push(Instr::JumpIfNot(0, next));
                    self.stmts(b, body)?;
                    b.code.push(Instr::Jump(end));
                    b.bind(next);
                }
                self.stmts(b, else_body)?;
                b.bind(end);
            }
            RStmt::Print(items) => {
                let mut out = Vec::with_capacity(items.len());
                let mut r: Reg = 0;
                for item in items {
                    match item {
                        RExpr::Str(s) => out.push(PrintItem::Str(self.unit.interner.intern(s))),
                        e => {
                            let t = self.expr(b, e, r)?;
                            out.push(match t {
                                Ty::I => PrintItem::RegI(r),
                                Ty::R => PrintItem::RegR(r),
                                Ty::B => PrintItem::RegB(r),
                            });
                            r += 1;
                        }
                    }
                }
                b.code.push(Instr::Print(out.into_boxed_slice()));
            }
            RStmt::Stop => b.code.push(Instr::Stop),
        }
        Ok(())
    }

    /// Emit a charge-free numeric conversion when `from != to`.
    fn convert(&mut self, b: &mut BlockBuilder, r: Reg, from: Ty, to: Ty) {
        match (from, to) {
            (Ty::I, Ty::R) => b.code.push(Instr::IToR(r, r)),
            (Ty::R, Ty::I) => b.code.push(Instr::RToI(r, r)),
            _ => debug_assert_eq!(from, to, "unconvertible types reached codegen"),
        }
    }

    /// A fused-subscript descriptor for `e`, when it has one of the
    /// shapes the element access can evaluate inline with the exact
    /// tree-walk charges: a literal, a scalar, or scalar ± literal.
    fn fuse_sub(&self, e: &RExpr) -> Option<SubSrc> {
        let imm32 = |v: i64| i32::try_from(v).ok();
        match e {
            RExpr::I(v) => Some(SubSrc::Imm(imm32(*v)?)),
            RExpr::Load(s) => Some(SubSrc::Slot(*s as u32)),
            RExpr::Bin(BinOp::Add, l, r) => match (&**l, &**r) {
                (RExpr::Load(s), RExpr::I(k)) | (RExpr::I(k), RExpr::Load(s)) => {
                    Some(SubSrc::SlotOff(*s as u32, imm32(*k)?))
                }
                _ => None,
            },
            RExpr::Bin(BinOp::Sub, l, r) => match (&**l, &**r) {
                (RExpr::Load(s), RExpr::I(k)) => {
                    Some(SubSrc::SlotOff(*s as u32, imm32(k.checked_neg()?)?))
                }
                _ => None,
            },
            _ => None,
        }
    }

    /// Compile an element access's subscripts into a pool window. Either
    /// *every* subscript fuses (charges happen inside the access, in
    /// subscript order) or *every* subscript is evaluated into registers
    /// `base..` first (charges happen there, in subscript order) — never
    /// a mix, which would reorder charges relative to the tree-walker.
    fn subs(
        &mut self,
        b: &mut BlockBuilder,
        subs: &[RExpr],
        base: Reg,
    ) -> Result<(u32, u8), MachineError> {
        let fused: Option<Vec<SubSrc>> = subs.iter().map(|s| self.fuse_sub(s)).collect();
        let entries = match fused {
            Some(entries) => entries,
            None => {
                let mut entries = Vec::with_capacity(subs.len());
                for (i, s) in subs.iter().enumerate() {
                    let r = base + i as Reg;
                    let t = self.expr(b, s, r)?;
                    entries.push(match t {
                        Ty::I => SubSrc::RegI(r),
                        Ty::R => SubSrc::RegR(r),
                        Ty::B => unreachable!("logical subscript reached codegen"),
                    });
                }
                entries
            }
        };
        let idx = self.unit.subs.len() as u32;
        let n = entries.len() as u8;
        self.unit.subs.extend(entries);
        Ok((idx, n))
    }

    /// Compile `e` so its value ends up in register `dst`, scratching
    /// only registers above `dst`. Returns the value's static type.
    /// Callers guarantee `stmt_types_ok`, so `ty(e)` is `Some` here.
    fn expr(&mut self, b: &mut BlockBuilder, e: &RExpr, dst: Reg) -> Result<Ty, MachineError> {
        use polaris_ir::expr::UnOp;
        b.touch(dst as usize)?;
        Ok(match e {
            RExpr::I(v) => {
                b.code.push(Instr::LitI(dst, *v));
                Ty::I
            }
            RExpr::R(v) => {
                b.code.push(Instr::LitR(dst, *v));
                Ty::R
            }
            RExpr::B(v) => {
                b.code.push(Instr::LitB(dst, *v));
                Ty::B
            }
            RExpr::Str(_) => unreachable!("string expression reached codegen"),
            RExpr::Load(s) => {
                let t = self.slot_ty[*s];
                b.code.push(match t {
                    Ty::I => Instr::LoadI(dst, *s as u32),
                    Ty::R => Instr::LoadR(dst, *s as u32),
                    Ty::B => Instr::LoadB(dst, *s as u32),
                });
                t
            }
            RExpr::Elem(a, subs) => {
                let (sub, n) = self.subs(b, subs, dst)?;
                let (t, arr) = (self.arr_ty[*a], *a as u32);
                b.code.push(match t {
                    Ty::I => Instr::LoadEI { dst, arr, sub, n },
                    Ty::R => Instr::LoadER { dst, arr, sub, n },
                    Ty::B => Instr::LoadEB { dst, arr, sub, n },
                });
                t
            }
            RExpr::Un(op, arg) => {
                let t = self.expr(b, arg, dst)?;
                b.code.push(match (op, t) {
                    (UnOp::Neg, Ty::I) => Instr::NegI(dst, dst),
                    (UnOp::Neg, Ty::R) => Instr::NegR(dst, dst),
                    (UnOp::Not, Ty::B) => Instr::NotB(dst, dst),
                    _ => unreachable!("ill-typed unary reached codegen"),
                });
                t
            }
            RExpr::Bin(op, lhs, rhs) => {
                let a = self.expr(b, lhs, dst)?;
                let c = self.expr(b, rhs, dst + 1)?;
                self.binop(b, *op, dst, a, c)?
            }
            RExpr::Intrin(intr, args) => {
                b.touch(dst as usize + args.len().saturating_sub(1))?;
                let mut tys = Vec::with_capacity(args.len());
                for (i, a) in args.iter().enumerate() {
                    tys.push(self.expr(b, a, dst + i as Reg)?);
                }
                self.intrin(b, *intr, dst, &tys)
            }
        })
    }

    /// Emit the typed opcode for `op` over `(dst, dst+1)`, inserting
    /// promotions. The data-dependent charges (integer `Div`/`Pow` rhs)
    /// use the `*RI` forms so the check still sees the integer value.
    fn binop(
        &mut self,
        b: &mut BlockBuilder,
        op: BinOp,
        d: Reg,
        ta: Ty,
        tb: Ty,
    ) -> Result<Ty, MachineError> {
        use BinOp::*;
        let (x, y) = (d, d + 1);
        let arith = matches!(op, Add | Sub | Mul | Div | Pow);
        let code = &mut b.code;
        Ok(match (ta, tb) {
            (Ty::I, Ty::I) if arith => {
                code.push(match op {
                    Add => Instr::AddI(d, x, y),
                    Sub => Instr::SubI(d, x, y),
                    Mul => Instr::MulI(d, x, y),
                    Div => Instr::DivI(d, x, y),
                    Pow => Instr::PowI(d, x, y),
                    _ => unreachable!(),
                });
                Ty::I
            }
            (Ty::I, Ty::I) => {
                code.push(Instr::CmpI(op, d, x, y));
                Ty::B
            }
            (Ty::R, Ty::I) if matches!(op, Div | Pow) => {
                // The charge check reads the integer rhs before promotion.
                code.push(if op == Div { Instr::DivRI(d, x, y) } else { Instr::PowRI(d, x, y) });
                Ty::R
            }
            (ta, tb) if ta.numeric() && tb.numeric() => {
                if ta == Ty::I {
                    code.push(Instr::IToR(x, x));
                }
                if tb == Ty::I {
                    code.push(Instr::IToR(y, y));
                }
                if arith {
                    code.push(match op {
                        Add => Instr::AddR(d, x, y),
                        Sub => Instr::SubR(d, x, y),
                        Mul => Instr::MulR(d, x, y),
                        Div => Instr::DivR(d, x, y),
                        Pow => Instr::PowR(d, x, y),
                        _ => unreachable!(),
                    });
                    Ty::R
                } else {
                    code.push(Instr::CmpR(op, d, x, y));
                    Ty::B
                }
            }
            (Ty::B, Ty::B) => {
                code.push(match op {
                    And => Instr::AndB(d, x, y),
                    Or => Instr::OrB(d, x, y),
                    _ => unreachable!("ill-typed binop reached codegen"),
                });
                Ty::B
            }
            _ => unreachable!("ill-typed binop reached codegen"),
        })
    }

    /// Emit an intrinsic call over `dst..dst+n`, converting arguments to
    /// the real path exactly where `eval_intrinsic`'s `as_r` would.
    fn intrin(&mut self, b: &mut BlockBuilder, intr: Intr, dst: Reg, tys: &[Ty]) -> Ty {
        // Which path does the tree take, and what does it return?
        let any_real = tys.contains(&Ty::R);
        let (real, result) = match intr {
            Intr::Sqrt | Intr::Sin | Intr::Cos | Intr::Tan | Intr::Exp | Intr::Log | Intr::Atan => {
                (true, Ty::R)
            }
            Intr::ToReal => (true, Ty::R),
            Intr::Nint => (true, Ty::I),
            Intr::Int => (tys[0] == Ty::R, Ty::I),
            Intr::Abs => (tys[0] == Ty::R, tys[0]),
            Intr::Mod | Intr::Sign => (any_real, if any_real { Ty::R } else { Ty::I }),
            Intr::Max | Intr::Min => (any_real, if any_real { Ty::R } else { Ty::I }),
        };
        if real {
            for (i, t) in tys.iter().enumerate() {
                if *t == Ty::I {
                    b.code.push(Instr::IToR(dst + i as Reg, dst + i as Reg));
                }
            }
        }
        b.code.push(Instr::Intrin { intr, dst, n: tys.len() as u8, real });
        result
    }
}

// ---- disassembler -----------------------------------------------------

/// Render a [`BcUnit`] as stable, human-auditable text — the format the
/// golden snapshots in `crates/machine/tests` pin for MDG and TRACK.
pub fn disassemble(bc: &BcUnit) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "; bytecode unit: {} blocks, {} loops, {} arrays, {} symbols, {} fallbacks",
        bc.blocks.len(),
        bc.loops.len(),
        bc.shapes.len(),
        bc.shapes.len() + bc.interner.len(),
        bc.stmts.len()
    );
    for (i, a) in bc.shapes.iter().enumerate() {
        let _ = write!(out, "array {i} {}", a.name);
        for d in a.dims.iter() {
            let _ = write!(out, " [{}..{} *{}]", d.low, d.low + d.extent - 1, d.stride);
        }
        out.push('\n');
    }
    let code = &bc.blocks[bc.entry as usize].code;
    for (i, (l, body)) in bc.loops.iter().enumerate() {
        let mut flags = String::new();
        if l.par.parallel {
            flags.push_str(" parallel");
        }
        if !l.par.spec_arrays.is_empty() {
            flags.push_str(" speculative");
        }
        if l.innermost {
            flags.push_str(" innermost");
        }
        // The body lies between its loop's two instructions.
        let Instr::LoopEnter { exit, .. } = code[*body as usize - 1] else {
            unreachable!("a loop body follows its LoopEnter")
        };
        let back = exit - 1;
        let _ = writeln!(
            out,
            "loop {i} \"{}\" var s{} body {body:04}..{back:04}{flags}",
            l.label, l.var
        );
    }
    for (i, blk) in bc.blocks.iter().enumerate() {
        let entry = if i as u32 == bc.entry { " (entry)" } else { "" };
        let _ = writeln!(out, "block {i}{entry} regs={}", blk.max_regs);
        for (addr, instr) in blk.code.iter().enumerate() {
            let _ = writeln!(out, "  {addr:04}  {}", render(bc, instr));
        }
        if !blk.labels.is_empty() {
            let _ = write!(out, "  labels:");
            for (l, addr) in blk.labels.iter().enumerate() {
                let _ = write!(out, " L{l}={addr:04}");
            }
            out.push('\n');
        }
    }
    out
}

fn render_subs(bc: &BcUnit, sub: u32, n: u8) -> String {
    let mut s = String::new();
    for (i, src) in bc.subs[sub as usize..sub as usize + n as usize].iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        match src {
            SubSrc::RegI(r) => {
                let _ = write!(s, "r{r}:i");
            }
            SubSrc::RegR(r) => {
                let _ = write!(s, "r{r}:r");
            }
            SubSrc::Slot(slot) => {
                let _ = write!(s, "s{slot}");
            }
            SubSrc::SlotOff(slot, off) => {
                let _ = write!(s, "s{slot}{off:+}");
            }
            SubSrc::Imm(v) => {
                let _ = write!(s, "{v}");
            }
        }
    }
    s
}

fn render(bc: &BcUnit, instr: &Instr) -> String {
    let arr_name = |a: &u32| &bc.shapes[*a as usize].name;
    match instr {
        Instr::Step => "step".into(),
        Instr::LitI(d, v) => format!("lit.i    r{d} <- {v}"),
        Instr::LitR(d, v) => format!("lit.r    r{d} <- {v:?}"),
        Instr::LitB(d, v) => format!("lit.b    r{d} <- {v}"),
        Instr::LoadI(d, s) => format!("ld.s.i   r{d} <- s{s}"),
        Instr::LoadR(d, s) => format!("ld.s.r   r{d} <- s{s}"),
        Instr::LoadB(d, s) => format!("ld.s.b   r{d} <- s{s}"),
        Instr::StoreI(s, r) => format!("st.s.i   s{s} <- r{r}"),
        Instr::StoreR(s, r) => format!("st.s.r   s{s} <- r{r}"),
        Instr::StoreB(s, r) => format!("st.s.b   s{s} <- r{r}"),
        Instr::IToR(d, s) => format!("cvt.i.r  r{d} <- r{s}"),
        Instr::RToI(d, s) => format!("cvt.r.i  r{d} <- r{s}"),
        Instr::LoadEI { dst, arr, sub, n } => {
            format!("ld.e.i   r{dst} <- {}[{}]", arr_name(arr), render_subs(bc, *sub, *n))
        }
        Instr::LoadER { dst, arr, sub, n } => {
            format!("ld.e.r   r{dst} <- {}[{}]", arr_name(arr), render_subs(bc, *sub, *n))
        }
        Instr::LoadEB { dst, arr, sub, n } => {
            format!("ld.e.b   r{dst} <- {}[{}]", arr_name(arr), render_subs(bc, *sub, *n))
        }
        Instr::StoreEI { arr, src, sub, n } => {
            format!("st.e.i   {}[{}] <- r{src}", arr_name(arr), render_subs(bc, *sub, *n))
        }
        Instr::StoreER { arr, src, sub, n } => {
            format!("st.e.r   {}[{}] <- r{src}", arr_name(arr), render_subs(bc, *sub, *n))
        }
        Instr::StoreEB { arr, src, sub, n } => {
            format!("st.e.b   {}[{}] <- r{src}", arr_name(arr), render_subs(bc, *sub, *n))
        }
        Instr::AddI(d, a, b) => format!("add.i    r{d} <- r{a}, r{b}"),
        Instr::SubI(d, a, b) => format!("sub.i    r{d} <- r{a}, r{b}"),
        Instr::MulI(d, a, b) => format!("mul.i    r{d} <- r{a}, r{b}"),
        Instr::DivI(d, a, b) => format!("div.i    r{d} <- r{a}, r{b}"),
        Instr::PowI(d, a, b) => format!("pow.i    r{d} <- r{a}, r{b}"),
        Instr::AddR(d, a, b) => format!("add.r    r{d} <- r{a}, r{b}"),
        Instr::SubR(d, a, b) => format!("sub.r    r{d} <- r{a}, r{b}"),
        Instr::MulR(d, a, b) => format!("mul.r    r{d} <- r{a}, r{b}"),
        Instr::DivR(d, a, b) => format!("div.r    r{d} <- r{a}, r{b}"),
        Instr::PowR(d, a, b) => format!("pow.r    r{d} <- r{a}, r{b}"),
        Instr::DivRI(d, a, b) => format!("div.ri   r{d} <- r{a}, r{b}"),
        Instr::PowRI(d, a, b) => format!("pow.ri   r{d} <- r{a}, r{b}"),
        Instr::NegI(d, s) => format!("neg.i    r{d} <- r{s}"),
        Instr::NegR(d, s) => format!("neg.r    r{d} <- r{s}"),
        Instr::NotB(d, s) => format!("not.b    r{d} <- r{s}"),
        Instr::CmpI(op, d, a, b) => {
            format!("{:<8} r{d} <- r{a}, r{b}", format!("{op:?}.i").to_lowercase())
        }
        Instr::CmpR(op, d, a, b) => {
            format!("{:<8} r{d} <- r{a}, r{b}", format!("{op:?}.r").to_lowercase())
        }
        Instr::AndB(d, a, b) => format!("and.b    r{d} <- r{a}, r{b}"),
        Instr::OrB(d, a, b) => format!("or.b     r{d} <- r{a}, r{b}"),
        Instr::Intrin { intr, dst, n, real } => {
            let suffix = if *real { "r" } else { "i" };
            format!(
                "{:<8} r{dst} <- r{dst}..r{}",
                format!("{intr:?}.{suffix}").to_lowercase(),
                *dst + (*n as Reg).saturating_sub(1)
            )
        }
        Instr::Branch => "branch".into(),
        Instr::Jump(l) => format!("jump     L{l}"),
        Instr::JumpIfNot(r, l) => format!("jmp.not  r{r}, L{l}"),
        Instr::Print(items) => {
            let mut s = String::from("print   ");
            for it in items.iter() {
                match it {
                    PrintItem::RegI(r) => {
                        let _ = write!(s, " r{r}:i");
                    }
                    PrintItem::RegR(r) => {
                        let _ = write!(s, " r{r}:r");
                    }
                    PrintItem::RegB(r) => {
                        let _ = write!(s, " r{r}:b");
                    }
                    PrintItem::Str(sym) => {
                        let _ = write!(s, " {:?}", bc.interner.resolve(*sym));
                    }
                }
            }
            s
        }
        Instr::LoopEnter { lp, exit } => {
            format!("do       {lp} \"{}\" exit -> {exit:04}", bc.loops[*lp as usize].0.label)
        }
        Instr::LoopBack { lp, body } => {
            format!("loop     {lp} \"{}\" body -> {body:04}", bc.loops[*lp as usize].0.label)
        }
        Instr::Stop => "stop".into(),
        Instr::Exec(i) => format!("exec     stmt {i} (tree-walk fallback)"),
        Instr::Halt => "halt".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;

    fn image(src: &str) -> Image {
        lower(&polaris_ir::parse(src).unwrap()).unwrap()
    }

    #[test]
    fn interner_round_trips_and_is_idempotent() {
        let mut i = Interner::default();
        let a = i.intern("alpha");
        let b = i.intern("beta");
        let a2 = i.intern("alpha");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "alpha");
        assert_eq!(i.resolve(b), "beta");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn forward_branches_resolve_through_the_jump_table() {
        let img = image(
            "program t\nx = 1.0\nif (x > 0.0) then\n  y = 1.0\nelse\n  y = 2.0\nend if\nend\n",
        );
        let bc = compile(&img).unwrap();
        let blk = &bc.blocks[bc.entry as usize];
        // Two labels: the arm-fail target and the end-of-if target.
        assert_eq!(blk.labels.len(), 2);
        for (i, instr) in blk.code.iter().enumerate() {
            match instr {
                Instr::Jump(l) | Instr::JumpIfNot(_, l) => {
                    let target = blk.labels[*l as usize];
                    assert!((target as usize) <= blk.code.len(), "label L{l} out of range");
                    assert!(target as usize > i, "IF lowering only emits forward branches");
                }
                _ => {}
            }
        }
        // fallthrough: the last instruction is Halt
        assert_eq!(blk.code.last(), Some(&Instr::Halt));
    }

    #[test]
    fn loops_compile_into_their_parents_stream() {
        let img = image(
            "program t\nreal a(10)\ndo i = 1, 10\n  do j = 1, 3\n    a(i) = a(i) + j\n  end do\nend do\nend\n",
        );
        let bc = compile(&img).unwrap();
        assert_eq!(bc.loops.len(), 2);
        // One block whatever the nesting: each body is compiled once, inline.
        assert_eq!(bc.blocks.len(), 1);
        let code = &bc.blocks[bc.entry as usize].code;
        let at = |want: &dyn Fn(&Instr) -> bool| code.iter().position(want).unwrap() as u32;
        for (lp, (l, body)) in bc.loops.iter().enumerate() {
            let lp = lp as u32;
            let enter = at(&|i| matches!(i, Instr::LoopEnter { lp: n, .. } if *n == lp));
            let back = at(&|i| matches!(i, Instr::LoopBack { lp: n, .. } if *n == lp));
            // enter, body.., back, exit: the body starts after the enter,
            // the back-edge returns there, the enter's exit is past it.
            assert_eq!(*body, enter + 1, "{}", l.label);
            assert_eq!(code[back as usize], Instr::LoopBack { lp, body: *body });
            assert_eq!(code[enter as usize], Instr::LoopEnter { lp, exit: back + 1 });
        }
        // The inner loop's whole range lies inside the outer body.
        let (outer, inner) = (0, 1);
        assert!(!bc.loops[outer].0.innermost && bc.loops[inner].0.innermost);
        let back_of = |lp: usize| at(&|i| matches!(i, Instr::LoopBack { lp: n, .. } if *n as usize == lp));
        assert!(bc.loops[outer].1 < bc.loops[inner].1 && back_of(inner) < back_of(outer));
        assert_eq!(code.iter().filter(|i| matches!(i, Instr::Halt)).count(), 1);
    }

    #[test]
    fn step_is_emitted_at_every_statement_boundary() {
        let img = image("program t\nx = 1.0\ny = 2.0\nz = x + y\nend\n");
        let bc = compile(&img).unwrap();
        let steps = bc.blocks[bc.entry as usize]
            .code
            .iter()
            .filter(|i| matches!(i, Instr::Step))
            .count();
        assert_eq!(steps, 3, "one fuel step per statement");
    }

    #[test]
    fn register_frames_are_stack_shaped() {
        // ((a+b)*(c+d)) needs regs 0..=2 with the stack discipline.
        // Scalar loads keep lowering from constant-folding the tree.
        let img =
            image("program t\na = 1.0\nb = 2.0\nc = 3.0\nd = 4.0\nx = (a + b) * (c + d)\nend\n");
        let bc = compile(&img).unwrap();
        assert_eq!(bc.blocks[bc.entry as usize].max_regs, 3);
        // One frame serves the whole activation: a loop body's registers
        // count towards the frame of the stream it is compiled into.
        let img = image(
            "program t\na = 1.0\nb = 2.0\nc = 3.0\nd = 4.0\nx = a\ndo i = 1, 2\n  x = (a + b) * (c + d)\nend do\nend\n",
        );
        let bc = compile(&img).unwrap();
        assert_eq!(bc.blocks[bc.entry as usize].max_regs, 3);
    }

    #[test]
    fn common_subscript_shapes_fuse_into_the_access() {
        // a(i), a(i+1), a(2) and a(j-1, i) all fuse: no subscript ever
        // occupies a register, and the pool holds the descriptors.
        let img = image(
            "program t\nreal a(10)\nreal b(10, 10)\ndo i = 1, 9\n  do j = 2, 10\n    a(i) = a(i + 1) + a(2) + b(j - 1, i)\n  end do\nend do\nend\n",
        );
        let bc = compile(&img).unwrap();
        assert!(
            bc.subs.iter().all(|s| !matches!(s, SubSrc::RegI(_) | SubSrc::RegR(_))),
            "expected fully fused subscripts, got {:?}",
            bc.subs
        );
        assert!(bc.subs.contains(&SubSrc::Imm(2)));
        assert!(bc.subs.iter().any(|s| matches!(s, SubSrc::SlotOff(_, 1))));
        assert!(bc.subs.iter().any(|s| matches!(s, SubSrc::SlotOff(_, -1))));
    }

    #[test]
    fn computed_subscripts_take_the_register_path_for_the_whole_access() {
        // b(i*2, j): one computed subscript forces both into registers so
        // the charge order stays strictly left-to-right.
        let img = image(
            "program t\nreal b(20, 10)\ndo i = 1, 5\n  do j = 1, 10\n    b(i * 2, j) = 1.0\n  end do\nend do\nend\n",
        );
        let bc = compile(&img).unwrap();
        let store = bc
            .blocks
            .iter()
            .flat_map(|b| &b.code)
            .find_map(|i| match i {
                Instr::StoreER { sub, n, .. } => Some((*sub, *n)),
                _ => None,
            })
            .expect("no StoreER emitted");
        let window = &bc.subs[store.0 as usize..store.0 as usize + store.1 as usize];
        assert!(
            window.iter().all(|s| matches!(s, SubSrc::RegI(_))),
            "mixed fused/register subscripts: {window:?}"
        );
    }

    #[test]
    fn typed_lowering_infers_integer_and_real_opcodes() {
        // k is integer (implicit typing), x real: `k + 1` is add.i,
        // `x * 2.0` is mul.r, and the mixed `k * x` promotes via cvt.i.r.
        let img = image("program t\nk = 1\nx = 2.0\nk = k + 1\nx = x * 2.0\nx = k * x\nend\n");
        let bc = compile(&img).unwrap();
        let code = &bc.blocks[bc.entry as usize].code;
        assert!(code.iter().any(|i| matches!(i, Instr::AddI(..))), "{code:?}");
        assert!(code.iter().any(|i| matches!(i, Instr::MulR(..))), "{code:?}");
        assert!(code.iter().any(|i| matches!(i, Instr::IToR(..))), "{code:?}");
        assert!(bc.stmts.is_empty(), "nothing should need the fallback");
    }

    #[test]
    fn untypeable_statements_fall_back_to_the_tree_walker() {
        // `l + 1` adds a logical — a run-time Type error the fallback
        // must surface with the tree-walker's exact behavior.
        let img = image("program t\nlogical l\nl = .true.\nk = l + 1\nend\n");
        let bc = compile(&img).unwrap();
        let code = &bc.blocks[bc.entry as usize].code;
        assert!(code.iter().any(|i| matches!(i, Instr::Exec(_))), "{code:?}");
        assert_eq!(bc.stmts.len(), 1);
        // The fallback statement charges its own step: no Step precedes it.
        let pos = code.iter().position(|i| matches!(i, Instr::Exec(_))).unwrap();
        assert!(!matches!(code[pos - 1], Instr::Step), "Exec must not be double-stepped");
    }

    #[test]
    fn disassembly_is_deterministic() {
        let img = image(
            "program t\nreal a(8)\ndo i = 1, 8\n  a(i) = i * 2.0\nend do\nprint *, 'done', a(8)\nend\n",
        );
        let bc1 = compile(&img).unwrap();
        let bc2 = compile(&img).unwrap();
        assert_eq!(disassemble(&bc1), disassemble(&bc2));
        assert!(Arc::ptr_eq(&bc1.shapes, &img.shapes) && Arc::ptr_eq(&bc2.shapes, &img.shapes));
        let text = disassemble(&bc1);
        // The symbols are the array names and the PRINT literals.
        assert!(text.starts_with("; bytecode unit: 1 blocks, 1 loops, 1 arrays, 2 symbols,"), "{text}");
        assert!(text.contains("loop 0 \"T_do"), "{text}");
        assert!(text.contains("do       0 \"T_do"), "{text}");
        assert!(text.contains("loop     0 \"T_do"), "{text}");
        assert!(text.contains("st.e.r"), "{text}");
        assert!(text.contains("\"done\""), "{text}");
    }
}

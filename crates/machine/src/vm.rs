//! The register VM: flat dispatch over a [`crate::bytecode`] stream.
//!
//! This is the hot loop of [`crate::Engine::Vm`]. One *activation* of
//! [`Interp::dispatch`] executes the unit's stream from a given address
//! against the interpreter's live state (scalars, arrays, cycle/fuel
//! counters, the speculation hook), in a raw `u64` register frame
//! its caller provides (`f64` values are bit-cast, logicals are `0`/`1`).
//! A run is one activation from address 0. A serial `DO` stays inside
//! it: `LoopEnter` opens a [`LoopFrame`] on the interpreter's loop-frame
//! stack and `LoopBack` jumps, so an iteration costs one dispatched
//! instruction, not a call. Only an invocation `Interp::dispatch_mode`
//! hands to an orchestration arm (concurrent, adaptive, adversarial)
//! leaves the loop: the arm runs each iteration as a nested activation
//! over the same stream, from the body's first address.
//!
//! **The range-return rule.** `LoopBack` belongs to the innermost loop
//! frame *this activation* opened. When it opened none — the activation
//! is one iteration an arm is running — the body has reached its end and
//! `LoopBack` returns `Flow::Normal` to the arm. Loops nest properly in
//! the stream, so "no frame of mine is open" identifies the arm's loop
//! without comparing loop ids. `Stop` runs the epilogues of the
//! activation's open frames innermost-first and returns `Flow::Stop`,
//! which each enclosing arm and activation passes on the same way; an
//! error drops the activation's frames without their epilogues, as an
//! unwinding `?` does in the tree-walker.
//!
//! **Parity contract** (pinned by `tests/vm_equivalence.rs` and the
//! existing machine suite, which runs under the VM by default): for any
//! program, the VM and the tree-walker produce bit-identical output,
//! identical simulated cycles, identical fuel-step positions, and the
//! same error (variant *and* payload) at the same execution point. Every
//! charge and side-effect below is therefore ordered exactly as in
//! `exec::eval`/`exec::run_stmt`:
//!
//! * subscripts are evaluated and converted left-to-right, *then*
//!   bounds-checked dimension by dimension (`element_index` order);
//! * an assignment's rhs evaluates before its subscripts; a binop's lhs
//!   before its rhs; operator cycles are charged before the operation;
//! * the data-dependent charges survive typing: integer divide by a
//!   positive power of two costs `alu`, `x**k` costs `k` multiplies for
//!   small non-negative `k` — both checked on the run-time value;
//! * a loop invocation runs the tree-walker's own prologue, mode decision
//!   and epilogue (`Interp::loop_prologue`/`dispatch_mode`/
//!   `loop_epilogue`), and an in-stream iteration the same
//!   `begin_iteration`/`end_iteration` an arm's iteration does;
//! * statements the type inference could not prove safe run through
//!   [`Instr::Exec`], i.e. the tree-walker itself.
//!
//! An audit traces its serial run on the tree-walker whatever engine is
//! configured (`oracle::audit_recorded`), so no instruction here tests
//! for a dependence-oracle hook.
//!
//! Typed opcodes read their operand types from compile-time inference,
//! which is sound because F-Mini storage never changes type at run time
//! (`Scalar::set`/`ArrData::set` write through the existing variant).
//!
//! Cycle charges accumulate in a dispatch-local counter and flush to
//! `Interp::cycles` only at *observation points* — `Exec` (the callee
//! reads the running total), loop entry and the loop-back (the per-loop
//! `cycles` and the codegen model's rescale of an iteration's delta read
//! it), `Stop` and the end of the stream. Between observation points only
//! the sum matters, so the accumulation order is free; cycles are not
//! part of any error payload, so early `?` returns may drop an
//! unflushed remainder without breaking engine parity.

use crate::bytecode::{ArrMeta, BcUnit, Instr, PrintItem, SubSrc};
use crate::cost::COSTS;
use crate::error::MachineError;
use crate::exec::{int_pow, Flow, Interp, LoopFrame};
use crate::value::{ArrData, Scalar};
use polaris_ir::expr::BinOp;
use std::fmt::Write as _;

/// Flatten converted subscripts against pre-resolved strides, with the
/// tree-walker's exact bounds-check order and error payload.
///
/// The returned offset is always in range for the array's backing
/// vector: each term contributes at most `(extent-1) * stride`, and the
/// strides were derived from the extents at compile time.
#[inline(always)]
fn flatten(bc: &BcUnit, meta: &ArrMeta, idxs: &[i64]) -> Result<usize, MachineError> {
    let mut off = 0i64;
    for (s, d) in idxs.iter().zip(meta.dims.iter()) {
        let z = s - d.low;
        if z < 0 || z >= d.extent {
            return Err(MachineError::OutOfBounds {
                array: bc.interner.resolve(meta.name).to_string(),
                index: *s,
                len: d.extent as usize,
            });
        }
        off += z * d.stride;
    }
    Ok(off as usize)
}

impl Interp<'_> {
    /// Evaluate one fused subscript to its integer value, charging what
    /// its tree-walk expansion charges (in the same order): a scalar
    /// read for `Slot`, a scalar read plus one `alu` add for `SlotOff`,
    /// nothing for a register or literal. Conversion follows `V::as_i`.
    #[inline(always)]
    fn sub_value(&self, cyc: &mut u64, regs: &[u64], src: SubSrc) -> Result<i64, MachineError> {
        match src {
            SubSrc::RegI(r) => Ok(regs[r as usize] as i64),
            SubSrc::RegR(r) => Ok(f64::from_bits(regs[r as usize]) as i64),
            SubSrc::Imm(v) => Ok(v as i64),
            SubSrc::Slot(s) => {
                *cyc += COSTS.scalar;
                match self.scalars[s as usize] {
                    Scalar::I(x) => Ok(x),
                    Scalar::R(x) => Ok(x as i64),
                    Scalar::B(_) => Err(MachineError::Type("logical used as integer".into())),
                }
            }
            SubSrc::SlotOff(s, off) => {
                *cyc += COSTS.scalar;
                let v = self.scalars[s as usize];
                // eval_binop charges the Add before any type dispatch.
                *cyc += COSTS.alu;
                match v {
                    Scalar::I(x) => Ok(x.wrapping_add(off as i64)),
                    Scalar::R(x) => Ok((x + off as f64) as i64),
                    Scalar::B(_) => Err(MachineError::Type("logical used as integer".into())),
                }
            }
        }
    }

    /// Resolve a fused element access to a flat index: evaluate every
    /// subscript first (left to right, with per-subscript charges), then
    /// bounds-check against the pre-resolved dims — `element_index`'s
    /// order exactly.
    #[inline(always)]
    fn element(
        &self,
        cyc: &mut u64,
        bc: &BcUnit,
        regs: &[u64],
        arr: u32,
        sub: u32,
        n: u8,
    ) -> Result<usize, MachineError> {
        let window = &bc.subs[sub as usize..sub as usize + n as usize];
        let meta = &bc.arrays[arr as usize];
        // F-Mini arrays are low-rank; a stack buffer covers every real
        // program and the heap path covers pathological ones.
        if window.len() <= 8 {
            let mut buf = [0i64; 8];
            for (b, src) in buf.iter_mut().zip(window) {
                *b = self.sub_value(cyc, regs, *src)?;
            }
            flatten(bc, meta, &buf[..window.len()])
        } else {
            let mut heap = Vec::with_capacity(window.len());
            for src in window {
                heap.push(self.sub_value(cyc, regs, *src)?);
            }
            flatten(bc, meta, &heap)
        }
    }

    /// One activation: execute `bc`'s stream from address `pc` in the
    /// register frame `regs` until the stream ends, a `Stop`, an error,
    /// or — when `pc` is a loop body's first address — that body's
    /// `LoopBack` (see the module doc). Frames are not cleared between
    /// activations: register allocation is stack-shaped and
    /// def-before-use, so stale values are never observable.
    pub(crate) fn dispatch(
        &mut self,
        bc: &BcUnit,
        regs: &mut [u64],
        pc: usize,
    ) -> Result<Flow, MachineError> {
        #[cfg(test)]
        {
            self.activations += 1;
        }
        let base = self.loop_frames.len();
        let res = self.dispatch_from(bc, regs, pc, base);
        if res.is_err() {
            // No epilogues; the spans close innermost first, as the
            // tree-walker's do while its `?` unwinds.
            while self.loop_frames.len() > base {
                self.loop_frames.pop();
            }
        }
        res
    }

    /// `Stop` reached with this activation's frames above `base` open:
    /// what the unwinding serial loops of the tree-walker do, innermost
    /// first — the iteration's rescale, then the epilogue, which stores
    /// no exit value.
    #[cold]
    fn unwind_stop(&mut self, bc: &BcUnit, base: usize) -> Result<Flow, MachineError> {
        while self.loop_frames.len() > base {
            let f = self.loop_frames.pop().expect("a frame above base");
            let l = &bc.loops[f.lp as usize].0;
            self.end_iteration(l, f.b0);
            self.loop_epilogue(l, f.inv, Flow::Stop)?;
        }
        Ok(Flow::Stop)
    }

    fn dispatch_from(
        &mut self,
        bc: &BcUnit,
        regs: &mut [u64],
        mut pc: usize,
        base: usize,
    ) -> Result<Flow, MachineError> {
        let block = &bc.blocks[bc.entry as usize];
        assert!(regs.len() >= block.max_regs, "register frame smaller than the unit needs");
        // The charges stay loads through an opaque reference: folded
        // into immediates they made `exec_serial` 4–5 % slower.
        let c = std::hint::black_box(&COSTS);
        let code = &block.code[..];
        // Dispatch-local cycle accumulator; see the module doc for the
        // flush discipline.
        let mut cyc: u64 = 0;
        // Instructions this activation dispatched; test builds add them
        // to `Interp::dispatches` (`retire!`) where it returns `Ok`.
        #[cfg(test)]
        let mut retired: u64 = 0;
        macro_rules! retire {
            () => {
                #[cfg(test)]
                {
                    self.dispatches += retired;
                }
            };
        }
        // SAFETY of the register accessors: the compiler sizes the
        // frame (`BcBlock::max_regs` tracks the highest register any
        // instruction touches) and the assertion above holds the caller
        // to at least that, so every operand index is in bounds by
        // construction.
        macro_rules! rd {
            ($r:expr) => {{
                debug_assert!(($r as usize) < regs.len());
                unsafe { *regs.get_unchecked($r as usize) }
            }};
        }
        macro_rules! wr {
            ($r:expr, $v:expr) => {{
                let v = $v;
                debug_assert!(($r as usize) < regs.len());
                unsafe { *regs.get_unchecked_mut($r as usize) = v }
            }};
        }
        macro_rules! f {
            ($r:expr) => {
                f64::from_bits(rd!($r))
            };
        }
        macro_rules! i {
            ($r:expr) => {
                rd!($r) as i64
            };
        }
        loop {
            // SAFETY: `pc` only advances sequentially through a block
            // that the compiler terminates with Halt, or jumps to an
            // address the compiler resolved inside `code` (a label, a
            // loop's body or exit); a caller's start address is 0 or a
            // `BcUnit::loops` body address.
            debug_assert!(pc < code.len());
            let instr = unsafe { code.get_unchecked(pc) };
            pc += 1;
            #[cfg(test)]
            {
                retired += 1;
            }
            match instr {
                Instr::Step => {
                    if !self.quiet_steps {
                        self.charge_step()?;
                    }
                }
                Instr::LitI(d, v) => wr!(*d, *v as u64),
                Instr::LitR(d, v) => wr!(*d, v.to_bits()),
                Instr::LitB(d, v) => wr!(*d, *v as u64),
                Instr::LoadI(d, slot) => {
                    cyc += c.scalar;
                    let Scalar::I(x) = self.scalars[*slot as usize] else {
                        unreachable!("scalar slot retyped")
                    };
                    wr!(*d, x as u64);
                }
                Instr::LoadR(d, slot) => {
                    cyc += c.scalar;
                    let Scalar::R(x) = self.scalars[*slot as usize] else {
                        unreachable!("scalar slot retyped")
                    };
                    wr!(*d, x.to_bits());
                }
                Instr::LoadB(d, slot) => {
                    cyc += c.scalar;
                    let Scalar::B(x) = self.scalars[*slot as usize] else {
                        unreachable!("scalar slot retyped")
                    };
                    wr!(*d, x as u64);
                }
                Instr::StoreI(slot, r) => {
                    cyc += c.scalar;
                    let Scalar::I(x) = &mut self.scalars[*slot as usize] else {
                        unreachable!("scalar slot retyped")
                    };
                    *x = rd!(*r) as i64;
                }
                Instr::StoreR(slot, r) => {
                    cyc += c.scalar;
                    let Scalar::R(x) = &mut self.scalars[*slot as usize] else {
                        unreachable!("scalar slot retyped")
                    };
                    *x = f64::from_bits(rd!(*r));
                }
                Instr::StoreB(slot, r) => {
                    cyc += c.scalar;
                    let Scalar::B(x) = &mut self.scalars[*slot as usize] else {
                        unreachable!("scalar slot retyped")
                    };
                    *x = rd!(*r) != 0;
                }
                Instr::IToR(d, s) => wr!(*d, (i!(*s) as f64).to_bits()),
                Instr::RToI(d, s) => wr!(*d, (f!(*s) as i64) as u64),
                Instr::LoadEI { dst, arr, sub, n } => {
                    let idx = self.element(&mut cyc, bc, regs, *arr, *sub, *n)?;
                    let a = *arr as usize;
                    cyc += c.memory;
                    if !self.spec.is_empty() {
                        cyc += self.mark_access(a, idx, false);
                    }
                    let ArrData::I(v) = self.arrays[a].data.get() else {
                        unreachable!("array retyped")
                    };
                    debug_assert!(idx < v.len());
                    // SAFETY: `flatten` bounds-checked every dimension.
                    wr!(*dst, unsafe { *v.get_unchecked(idx) } as u64);
                }
                Instr::LoadER { dst, arr, sub, n } => {
                    let idx = self.element(&mut cyc, bc, regs, *arr, *sub, *n)?;
                    let a = *arr as usize;
                    cyc += c.memory;
                    if !self.spec.is_empty() {
                        cyc += self.mark_access(a, idx, false);
                    }
                    let ArrData::R(v) = self.arrays[a].data.get() else {
                        unreachable!("array retyped")
                    };
                    debug_assert!(idx < v.len());
                    // SAFETY: `flatten` bounds-checked every dimension.
                    wr!(*dst, unsafe { *v.get_unchecked(idx) }.to_bits());
                }
                Instr::LoadEB { dst, arr, sub, n } => {
                    let idx = self.element(&mut cyc, bc, regs, *arr, *sub, *n)?;
                    let a = *arr as usize;
                    cyc += c.memory;
                    if !self.spec.is_empty() {
                        cyc += self.mark_access(a, idx, false);
                    }
                    let ArrData::B(v) = self.arrays[a].data.get() else {
                        unreachable!("array retyped")
                    };
                    wr!(*dst, v[idx] as u64);
                }
                Instr::StoreEI { arr, src, sub, n } => {
                    let idx = self.element(&mut cyc, bc, regs, *arr, *sub, *n)?;
                    let a = *arr as usize;
                    cyc += c.memory;
                    if !self.spec.is_empty() {
                        cyc += self.mark_access(a, idx, true);
                    }
                    let ArrData::I(v) = self.arrays[a].data.make_mut() else {
                        unreachable!("array retyped")
                    };
                    debug_assert!(idx < v.len());
                    let x = rd!(*src) as i64;
                    // SAFETY: `flatten` bounds-checked every dimension.
                    unsafe { *v.get_unchecked_mut(idx) = x };
                }
                Instr::StoreER { arr, src, sub, n } => {
                    let idx = self.element(&mut cyc, bc, regs, *arr, *sub, *n)?;
                    let a = *arr as usize;
                    cyc += c.memory;
                    if !self.spec.is_empty() {
                        cyc += self.mark_access(a, idx, true);
                    }
                    let ArrData::R(v) = self.arrays[a].data.make_mut() else {
                        unreachable!("array retyped")
                    };
                    debug_assert!(idx < v.len());
                    let x = f64::from_bits(rd!(*src));
                    // SAFETY: `flatten` bounds-checked every dimension.
                    unsafe { *v.get_unchecked_mut(idx) = x };
                }
                Instr::StoreEB { arr, src, sub, n } => {
                    let idx = self.element(&mut cyc, bc, regs, *arr, *sub, *n)?;
                    let a = *arr as usize;
                    cyc += c.memory;
                    if !self.spec.is_empty() {
                        cyc += self.mark_access(a, idx, true);
                    }
                    let ArrData::B(v) = self.arrays[a].data.make_mut() else {
                        unreachable!("array retyped")
                    };
                    v[idx] = rd!(*src) != 0;
                }
                Instr::AddI(d, a, b) => {
                    cyc += c.alu;
                    wr!(*d, i!(*a).wrapping_add(i!(*b)) as u64);
                }
                Instr::SubI(d, a, b) => {
                    cyc += c.alu;
                    wr!(*d, i!(*a).wrapping_sub(i!(*b)) as u64);
                }
                Instr::MulI(d, a, b) => {
                    cyc += c.mul;
                    wr!(*d, i!(*a).wrapping_mul(i!(*b)) as u64);
                }
                Instr::DivI(d, a, b) => {
                    let y = i!(*b);
                    cyc += if y > 0 && (y & (y - 1)) == 0 { c.alu } else { c.div };
                    if y == 0 {
                        return Err(MachineError::DivByZero);
                    }
                    wr!(*d, i!(*a).wrapping_div(y) as u64);
                }
                Instr::PowI(d, a, b) => {
                    let k = i!(*b);
                    cyc += if (0..=3).contains(&k) {
                        c.mul * (k.max(1) as u64)
                    } else {
                        c.intrinsic
                    };
                    wr!(*d, int_pow(i!(*a), k) as u64);
                }
                Instr::AddR(d, a, b) => {
                    cyc += c.alu;
                    wr!(*d, (f!(*a) + f!(*b)).to_bits());
                }
                Instr::SubR(d, a, b) => {
                    cyc += c.alu;
                    wr!(*d, (f!(*a) - f!(*b)).to_bits());
                }
                Instr::MulR(d, a, b) => {
                    cyc += c.mul;
                    wr!(*d, (f!(*a) * f!(*b)).to_bits());
                }
                Instr::DivR(d, a, b) => {
                    cyc += c.div;
                    wr!(*d, (f!(*a) / f!(*b)).to_bits());
                }
                Instr::PowR(d, a, b) => {
                    cyc += c.intrinsic;
                    wr!(*d, f!(*a).powf(f!(*b)).to_bits());
                }
                Instr::DivRI(d, a, b) => {
                    // Real / integer-typed rhs: the power-of-two charge
                    // check reads the integer before promotion.
                    let y = i!(*b);
                    cyc += if y > 0 && (y & (y - 1)) == 0 { c.alu } else { c.div };
                    wr!(*d, (f!(*a) / y as f64).to_bits());
                }
                Instr::PowRI(d, a, b) => {
                    let k = i!(*b);
                    cyc += if (0..=3).contains(&k) {
                        c.mul * (k.max(1) as u64)
                    } else {
                        c.intrinsic
                    };
                    wr!(*d, f!(*a).powf(k as f64).to_bits());
                }
                Instr::NegI(d, s) => {
                    cyc += c.alu;
                    wr!(*d, (-i!(*s)) as u64);
                }
                Instr::NegR(d, s) => {
                    cyc += c.alu;
                    wr!(*d, (-f!(*s)).to_bits());
                }
                Instr::NotB(d, s) => {
                    cyc += c.alu;
                    wr!(*d, rd!(*s) ^ 1);
                }
                Instr::CmpI(op, d, a, b) => {
                    cyc += c.alu;
                    let (x, y) = (i!(*a), i!(*b));
                    wr!(
                        *d,
                        match op {
                            BinOp::Lt => x < y,
                            BinOp::Le => x <= y,
                            BinOp::Gt => x > y,
                            BinOp::Ge => x >= y,
                            BinOp::Eq => x == y,
                            BinOp::Ne => x != y,
                            _ => unreachable!("non-comparison in CmpI"),
                        } as u64
                    );
                }
                Instr::CmpR(op, d, a, b) => {
                    cyc += c.alu;
                    let (x, y) = (f!(*a), f!(*b));
                    wr!(
                        *d,
                        match op {
                            BinOp::Lt => x < y,
                            BinOp::Le => x <= y,
                            BinOp::Gt => x > y,
                            BinOp::Ge => x >= y,
                            BinOp::Eq => x == y,
                            BinOp::Ne => x != y,
                            _ => unreachable!("non-comparison in CmpR"),
                        } as u64
                    );
                }
                Instr::AndB(d, a, b) => {
                    cyc += c.alu;
                    wr!(*d, rd!(*a) & rd!(*b));
                }
                Instr::OrB(d, a, b) => {
                    cyc += c.alu;
                    wr!(*d, rd!(*a) | rd!(*b));
                }
                Instr::Intrin { intr, dst, n, real } => {
                    cyc += self.intrinsic(regs, *intr, *dst, *n, *real)?;
                }
                Instr::Branch => cyc += c.branch,
                Instr::Jump(l) => pc = block.labels[*l as usize] as usize,
                Instr::JumpIfNot(r, l) => {
                    if rd!(*r) == 0 {
                        pc = block.labels[*l as usize] as usize;
                    }
                }
                Instr::Print(items) => {
                    let mut line = String::new();
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            line.push(' ');
                        }
                        match item {
                            PrintItem::Str(sym) => line.push_str(bc.interner.resolve(*sym)),
                            PrintItem::RegI(r) => line.push_str(&i!(*r).to_string()),
                            PrintItem::RegR(r) => {
                                let _ = write!(line, "{:.6E}", f!(*r));
                            }
                            PrintItem::RegB(r) => {
                                line.push_str(if rd!(*r) != 0 { "T" } else { "F" })
                            }
                        }
                    }
                    self.output.push(line);
                }
                Instr::LoopEnter { lp, exit } => {
                    // Observation point: the prologue evaluates the
                    // bounds into, and reads, `self.cycles`.
                    self.cycles += cyc;
                    cyc = 0;
                    let (l, body) = &bc.loops[*lp as usize];
                    let inv = self.loop_prologue(l)?;
                    match self.dispatch_mode(l, inv.space, Some(*body))? {
                        None if inv.space.trip() > 0 => {
                            self.begin_iteration(l, inv.space, 0)?;
                            self.loop_frames.push(LoopFrame { lp: *lp, inv, idx: 0, b0: self.cycles });
                        }
                        None | Some(Flow::Normal) => {
                            self.loop_epilogue(l, inv, Flow::Normal)?;
                            pc = *exit as usize;
                        }
                        Some(Flow::Stop) => {
                            self.loop_epilogue(l, inv, Flow::Stop)?;
                            retire!();
                            return self.unwind_stop(bc, base);
                        }
                    }
                }
                Instr::LoopBack { lp, body } => {
                    // Observation point: the iteration's delta.
                    self.cycles += cyc;
                    cyc = 0;
                    if self.loop_frames.len() == base {
                        // The range-return rule (module doc).
                        retire!();
                        return Ok(Flow::Normal);
                    }
                    let l = &bc.loops[*lp as usize].0;
                    let top = self.loop_frames.len() - 1;
                    let f = &mut self.loop_frames[top];
                    debug_assert_eq!(f.lp, *lp, "loop-back of a loop that is not innermost");
                    let (b0, space, idx) = (f.b0, f.inv.space, f.idx + 1);
                    self.end_iteration(l, b0);
                    if idx < space.trip() {
                        self.begin_iteration(l, space, idx)?;
                        let f = &mut self.loop_frames[top];
                        f.idx = idx;
                        f.b0 = self.cycles;
                        pc = *body as usize;
                    } else {
                        let f = self.loop_frames.pop().expect("the frame just read");
                        self.loop_epilogue(l, f.inv, Flow::Normal)?;
                    }
                }
                Instr::Stop => {
                    self.cycles += cyc;
                    retire!();
                    return self.unwind_stop(bc, base);
                }
                Instr::Exec(i) => {
                    // Observation point: the tree-walker charges into
                    // `self.cycles` directly.
                    self.cycles += cyc;
                    cyc = 0;
                    if self.run_stmt(&bc.stmts[*i as usize])? == Flow::Stop {
                        retire!();
                        return self.unwind_stop(bc, base);
                    }
                }
                Instr::Halt => {
                    self.cycles += cyc;
                    retire!();
                    return Ok(Flow::Normal);
                }
            }
        }
    }

    /// Typed intrinsic over the register window `dst..dst+n`; returns
    /// the cycles to charge. Arguments were uniformly converted by the
    /// compiler when `real`; the charge and numeric semantics mirror
    /// `exec::eval_intrinsic` exactly.
    fn intrinsic(
        &mut self,
        regs: &mut [u64],
        intr: crate::lower::Intr,
        dst: crate::bytecode::Reg,
        n: u8,
        real: bool,
    ) -> Result<u64, MachineError> {
        use crate::lower::Intr;
        let cheap = matches!(
            intr,
            Intr::Mod
                | Intr::Max
                | Intr::Min
                | Intr::Abs
                | Intr::Int
                | Intr::Nint
                | Intr::ToReal
                | Intr::Sign
        );
        let charge = if cheap { COSTS.mul } else { COSTS.intrinsic };
        let base = dst as usize;
        let fa = |i: usize| f64::from_bits(regs[base + i]);
        let ia = |i: usize| regs[base + i] as i64;
        regs[base] = match (intr, real) {
            (Intr::Mod, true) => (fa(0) % fa(1)).to_bits(),
            (Intr::Mod, false) => {
                if ia(1) == 0 {
                    return Err(MachineError::DivByZero);
                }
                (ia(0) % ia(1)) as u64
            }
            (Intr::Max, true) => {
                (1..n as usize).fold(fa(0), |acc, i| acc.max(fa(i))).to_bits()
            }
            (Intr::Min, true) => {
                (1..n as usize).fold(fa(0), |acc, i| acc.min(fa(i))).to_bits()
            }
            (Intr::Max, false) => (1..n as usize).fold(ia(0), |acc, i| acc.max(ia(i))) as u64,
            (Intr::Min, false) => (1..n as usize).fold(ia(0), |acc, i| acc.min(ia(i))) as u64,
            (Intr::Abs, true) => fa(0).abs().to_bits(),
            // `.abs()` rather than `.unsigned_abs()`: the tree-walker
            // uses `i64::abs`, and debug-build overflow panics must
            // match between engines.
            #[allow(clippy::cast_abs_to_unsigned)]
            (Intr::Abs, false) => ia(0).abs() as u64,
            (Intr::Sign, true) => {
                (fa(0).abs() * if fa(1) < 0.0 { -1.0 } else { 1.0 }).to_bits()
            }
            (Intr::Sign, false) => (ia(0).abs() * if ia(1) < 0 { -1 } else { 1 }) as u64,
            (Intr::Sqrt, _) => fa(0).sqrt().to_bits(),
            (Intr::Sin, _) => fa(0).sin().to_bits(),
            (Intr::Cos, _) => fa(0).cos().to_bits(),
            (Intr::Tan, _) => fa(0).tan().to_bits(),
            (Intr::Exp, _) => fa(0).exp().to_bits(),
            (Intr::Log, _) => fa(0).ln().to_bits(),
            (Intr::Atan, _) => fa(0).atan().to_bits(),
            // INT of an integer is the identity (but still charges);
            // of a real it truncates like `V::as_i`.
            (Intr::Int, false) => regs[base],
            (Intr::Int, true) => (fa(0) as i64) as u64,
            // NINT always takes the real path (`as_r` then round).
            (Intr::Nint, _) => (fa(0).round() as i64) as u64,
            // REAL()'s argument was already converted by the compiler.
            (Intr::ToReal, _) => regs[base],
        };
        Ok(charge)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use crate::exec::run_with;
    use crate::{MachineConfig, RunResult, Schedule};
    use polaris_ir::Program;

    /// The 26 kernels of `crates/benchmarks/codes`, restructured by the
    /// full pipeline, as the benchmark's exec workloads run them.
    pub(crate) fn kernels() -> Vec<(String, Program)> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../benchmarks/codes");
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "f"))
            .collect();
        files.sort();
        assert_eq!(files.len(), 26);
        files
            .iter()
            .map(|path| {
                let name = path.file_stem().unwrap().to_string_lossy().into_owned();
                let src = std::fs::read_to_string(path).unwrap();
                let (program, report) =
                    polaris_core::parse_and_compile(&src, &polaris_core::PassOptions::polaris())
                        .unwrap_or_else(|e| panic!("{name}: {e}"));
                assert!(!report.degraded(), "{name}: pipeline degraded");
                (name, program)
            })
            .collect()
    }

    /// A VM run, with how often it entered `dispatch`, how many
    /// iterations its orchestration arms ran and how many instructions
    /// it dispatched (lanes' included).
    fn fenced(program: &Program, cfg: &MachineConfig) -> (RunResult, u64, u64, u64) {
        let (ran, (activations, arm_iterations, dispatches)) =
            run_with(program, cfg, &polaris_obs::Recorder::disabled(), |it, _| {
                (it.activations, it.arm_iterations, it.dispatches)
            })
            .unwrap();
        (ran, activations, arm_iterations, dispatches)
    }

    /// Instructions a serial run of each kernel dispatches, in file
    /// order: the count a change to the bytecode or the dispatch loop
    /// moves, and must move on purpose.
    const SERIAL_DISPATCHES: [(&str, u64); 26] = [
        ("applu", 916_037),
        ("appsp", 549_368),
        ("arc2d", 1_038_953),
        ("bdna", 1_765_172),
        ("bucket", 36_873),
        ("cloud3d", 729_064),
        ("cmhog", 3_357_608),
        ("compact", 36_129),
        ("flo52", 928_437),
        ("gather", 36_873),
        ("histo", 51_529),
        ("hydro2d", 2_433_750),
        ("mdg", 475_058),
        ("mmt", 393_420),
        ("ocean", 3_061_434),
        ("prefix", 26_115),
        ("spmv", 34_571),
        ("spmvt", 218_891),
        ("stencil2d", 37_646),
        ("su2cor", 701_489),
        ("swim", 1_582_522),
        ("tfft2", 396_776),
        ("tomcatv", 2_075_993),
        ("track", 622_630),
        ("trfd", 1_999_712),
        ("wave5", 210_961),
    ];

    /// The mechanism, as a count: on the serial machine no iteration of
    /// any loop of any kernel — `PARALLEL`-annotated or not — leaves the
    /// dispatch loop. And the work, as a count: instructions dispatched.
    #[test]
    fn a_serial_run_of_each_kernel_enters_dispatch_exactly_once() {
        for ((name, program), pinned) in kernels().iter().zip(SERIAL_DISPATCHES) {
            let (ran, activations, arm_iterations, dispatches) = fenced(program, &MachineConfig::serial());
            assert!(ran.loops.values().map(|s| s.invocations).sum::<u64>() > 0, "{name}");
            assert_eq!((activations, arm_iterations), (1, 0), "{name}");
            assert_eq!((name.as_str(), dispatches), pinned);
        }
        assert_eq!(SERIAL_DISPATCHES.iter().map(|(_, n)| n).sum::<u64>(), 23_717_011);
    }

    /// On two threads an activation beyond the first is one iteration of
    /// a forked (or simulated in-order) loop, on whichever lane: the
    /// iterations of the loops nested in it stay in that activation.
    #[test]
    fn on_two_threads_every_other_activation_is_one_dispatched_iteration() {
        let cfg = MachineConfig::threaded(2, Schedule::Static);
        for (name, program) in kernels() {
            let (ran, activations, arm_iterations, _) = fenced(&program, &cfg);
            assert_eq!(activations, 1 + arm_iterations, "{name}");
            let concurrent = ran.loops.values().any(|s| s.parallel_invocations + s.spec_fail > 0);
            assert_eq!(arm_iterations > 0, concurrent, "{name}: {:?}", ran.loops);
        }
        // Known trips, so the count can be read off `RunResult.loops`: the
        // DOALL forks (or stays under the guard, with the master running
        // both lanes) in each of its invocations, 300 iterations apiece,
        // and the 5 trips of the loop inside it are nobody's activation.
        let src = "program t\nreal a(300)\ndo k = 1, 4\n!$polaris doall private(J)\ndo i = 1, 300\n  do j = 1, 5\n    a(i) = a(i) + j * k\n  end do\nend do\nend do\nprint *, a(300)\nend\n";
        let (ran, activations, ..) = fenced(&polaris_ir::parse(src).unwrap(), &cfg);
        assert_eq!(ran.output, ["1.500000E2"]);
        let doall = ran.loops.values().find(|s| s.parallel_invocations > 0).expect("a forked loop");
        assert_eq!((doall.invocations, doall.parallel_invocations), (4, 4));
        assert_eq!(activations, 1 + doall.invocations * 300);
    }
}

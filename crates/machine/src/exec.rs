//! The interpreter and the simulated multiprocessor.

use crate::cost::COSTS;
use crate::error::MachineError;
use crate::dispatch::{ChunkPlan, IterSpace};
use crate::lower::{lower_with_cap, Image, Intr, RExpr, RLoop, RRef, RStmt};
use crate::lrpd::{PdVerdict, Shadow};
use crate::oracle::Loc;
use crate::value::{ArrData, Scalar, Shape, V};
use crate::{Engine, ExecMode, MachineConfig};
use polaris_ir::expr::{BinOp, UnOp};
use polaris_ir::{Name, Program};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-loop execution statistics (keyed by loop label).
#[derive(Debug, Clone, Default)]
pub struct LoopExecStats {
    pub invocations: u64,
    pub parallel_invocations: u64,
    pub spec_success: u64,
    pub spec_fail: u64,
    /// Cycles charged to this loop (all invocations, at this nesting).
    pub cycles: u64,
}

impl LoopExecStats {
    /// Add another tally of the same loop (a worker's, or a same-label
    /// loop's) into this one.
    pub(crate) fn absorb(&mut self, other: &LoopExecStats) {
        self.invocations += other.invocations;
        self.parallel_invocations += other.parallel_invocations;
        self.spec_success += other.spec_success;
        self.spec_fail += other.spec_fail;
        self.cycles += other.cycles;
    }
}

/// Result of one program run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub cycles: u64,
    pub output: Vec<String>,
    pub loops: BTreeMap<String, LoopExecStats>,
    /// Host wall-clock time of the whole run. For `ExecMode::Simulated`
    /// this is just interpreter overhead; for `ExecMode::Threaded` it is
    /// the real parallel execution time the perf trajectory records.
    pub wall: Duration,
}

impl RunResult {
    /// Simulated seconds at 150 MHz.
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 / 150.0e6
    }

    /// A per-loop profile listing (hottest first) in the style of the
    /// Polaris compilation/execution listings the paper's evaluation
    /// methodology is built on (`NLFILT/300`-style naming).
    pub fn profile(&self) -> String {
        use std::fmt::Write as _;
        let mut rows: Vec<(&String, &LoopExecStats)> = self.loops.iter().collect();
        rows.sort_by_key(|(_, s)| std::cmp::Reverse(s.cycles));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>12} {:>6} {:>8} {:>8} {:>11}",
            "loop", "cycles", "%", "invocs", "par", "spec(ok/no)"
        );
        for (label, st) in rows {
            let pct = if self.cycles > 0 {
                100.0 * st.cycles as f64 / self.cycles as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:<28} {:>12} {:>5.1}% {:>8} {:>8} {:>6}/{}",
                label,
                st.cycles,
                pct,
                st.invocations,
                st.parallel_invocations,
                st.spec_success,
                st.spec_fail
            );
        }
        out
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    Normal,
    Stop,
}

/// What one loop invocation carries from its prologue to its epilogue.
pub(crate) struct Invocation {
    pub(crate) space: IterSpace,
    /// `cycles` when the loop was entered, its bounds evaluated.
    start: u64,
    span: polaris_obs::Span,
}

/// A serial invocation the VM is iterating in-stream: one per open
/// `LoopEnter`, innermost last, on [`Interp::loop_frames`].
pub(crate) struct LoopFrame {
    /// Index into `BcUnit::loops`.
    pub(crate) lp: u32,
    pub(crate) inv: Invocation,
    /// The running iteration, and `cycles` when its body began.
    pub(crate) idx: u64,
    pub(crate) b0: u64,
}

/// Iterations `idx..end` of an invocation that an orchestration arm runs
/// in one go ([`Interp::run_range`]): `idx` is the iteration running, and
/// the failing one when the range returns an error; `b0` is `cycles` when
/// its body began.
pub(crate) struct ArmRange {
    space: IterSpace,
    pub(crate) idx: u64,
    end: u64,
    b0: u64,
}

impl ArmRange {
    pub(crate) fn new(space: IterSpace, start: u64, end: u64) -> ArmRange {
        ArmRange { space, idx: start, end, b0: 0 }
    }
}

/// The VM's handle on a loop body for an orchestration arm: the stream,
/// where the body starts in it, and the register frame the arm's
/// iterations run in (taken once per arm, not once per iteration).
pub(crate) struct BodyFrame {
    pub(crate) bc: Arc<crate::bytecode::BcUnit>,
    pub(crate) start: u32,
    pub(crate) regs: Vec<u64>,
}

pub(crate) struct Interp<'a> {
    pub(crate) cfg: &'a MachineConfig,
    pub(crate) scalars: Vec<Scalar>,
    /// The image's table of array names and layouts ([`Image::shapes`]).
    pub(crate) shapes: Arc<[Shape]>,
    /// A handle on each array's elements, by slot.
    pub(crate) arrays: Vec<ArrData>,
    pub(crate) cycles: u64,
    /// Monotonic statement/iteration counter for the fuel budget.
    /// Separate from `cycles`, which the codegen model and parallel
    /// scheduling rewind and rescale. Counted by this thread alone: a
    /// threaded lane starts from the master's count at the fork, and
    /// after the join the master adds what the lanes took.
    pub(crate) steps: u64,
    pub(crate) in_parallel: bool,
    adversarial: bool,
    pub(crate) output: Vec<String>,
    /// Per-loop execution stats, indexed by the dense
    /// [`polaris_ir::stmt::LoopId`] so the per-invocation updates are a
    /// vector index, not a string-keyed map probe; [`Self::into_result`]
    /// folds this into the label-keyed map `RunResult` exposes.
    pub(crate) loop_stats: Vec<Option<(String, LoopExecStats)>>,
    /// Active speculative tracking: (array slot, shadow).
    pub(crate) spec: Vec<(usize, Shadow)>,
    pub(crate) spec_iter: u32,
    /// The reduction log of a lane; `None` elsewhere (see
    /// [`crate::threaded::RedLog`]).
    pub(crate) red: Option<Box<crate::threaded::RedLog>>,
    /// Dependence-oracle trace (see [`crate::oracle`]); attached only by
    /// [`crate::oracle::audit_recorded`], to a serial tree-walker, so only
    /// the tree-walker has the access hooks. `None` costs one branch per
    /// hook.
    pub(crate) oracle: Option<Box<crate::oracle::OracleState>>,
    /// Compiled bytecode of the running unit (`Engine::Vm` only); the
    /// orchestration arms re-enter [`crate::vm`] through this shared
    /// handle ([`Self::body_frame`]).
    pub(crate) bc: Option<Arc<crate::bytecode::BcUnit>>,
    /// Recycled raw register frames for VM activations (registers never
    /// survive a statement, so frames are reusable without clearing).
    pub(crate) vm_pool: Vec<Vec<u64>>,
    /// The serial loops the VM has open, across its nested activations.
    pub(crate) loop_frames: Vec<LoopFrame>,
    /// Entries into `vm::dispatch`: the fence that no serial iteration
    /// leaves the dispatch loop and an arm enters it once per range.
    #[cfg(test)]
    pub(crate) activations: u64,
    /// Instructions the VM dispatched, counted per activation and added
    /// here when it returns.
    #[cfg(test)]
    pub(crate) dispatches: u64,
    /// True when no step-count observer exists (no fuel limit, no
    /// panic-at-step, no cancellation token): the step count is then
    /// unobservable and [`Self::charge_step`] can be skipped entirely on
    /// the hot path.
    pub(crate) quiet_steps: bool,
    /// Observability recorder (see [`polaris_obs`]); disabled by default,
    /// attached by [`run_recorded`]. Workers always carry a disabled
    /// handle — chunk events are recorded post-join on the driver thread
    /// so the trace stays deterministic.
    pub(crate) recorder: polaris_obs::Recorder,
}

impl<'a> Interp<'a> {
    /// An interpreter of `image` under `cfg`'s engine, running `bc` if
    /// given. It takes the image's arrays as its memory, by value — a
    /// clone of their handles would share the elements with the image,
    /// a copy would be one pass over every array per run — and shares the
    /// shapes.
    pub(crate) fn new(
        image: &mut Image,
        cfg: &'a MachineConfig,
        bc: Option<Arc<crate::bytecode::BcUnit>>,
    ) -> Result<Interp<'a>, MachineError> {
        let quiet_steps = Interp::quiet(cfg);
        let bc = match cfg.engine {
            _ if bc.is_some() => bc,
            Engine::TreeWalk => None,
            // A config that cannot observe step counts gets the
            // Step-free stream (see `bytecode::compile_quiet`).
            Engine::Vm if quiet_steps => Some(Arc::new(crate::bytecode::compile_quiet(image)?)),
            Engine::Vm => Some(Arc::new(crate::bytecode::compile(image)?)),
        };
        let (shapes, arrays) = (Arc::clone(&image.shapes), std::mem::take(&mut image.arrays));
        Ok(Interp { bc, ..Interp::over(cfg, image.scalars.clone(), shapes, arrays, 0) })
    }

    fn quiet(cfg: &MachineConfig) -> bool {
        cfg.fuel.is_none() && cfg.cancel.is_none() && cfg.panic_at_step.is_none()
    }

    /// A fresh interpreter over the given memory, `steps` into the fuel
    /// budget. Threaded lanes build theirs from copies of the master's
    /// state and set `in_parallel` so they never fork further.
    pub(crate) fn over(
        cfg: &'a MachineConfig,
        scalars: Vec<Scalar>,
        shapes: Arc<[Shape]>,
        arrays: Vec<ArrData>,
        steps: u64,
    ) -> Interp<'a> {
        Interp {
            cfg,
            scalars,
            shapes,
            arrays,
            cycles: 0,
            steps,
            in_parallel: false,
            adversarial: false,
            output: Vec::new(),
            loop_stats: Vec::new(),
            spec: Vec::new(),
            spec_iter: 0,
            red: None,
            oracle: None,
            bc: None,
            vm_pool: Vec::new(),
            loop_frames: Vec::new(),
            #[cfg(test)]
            activations: 0,
            #[cfg(test)]
            dispatches: 0,
            quiet_steps: Interp::quiet(cfg),
            recorder: polaris_obs::Recorder::disabled(),
        }
    }

    // ---- expression evaluation -------------------------------------------

    fn eval(&mut self, e: &RExpr) -> Result<V, MachineError> {
        let c = &COSTS;
        match e {
            RExpr::I(v) => Ok(V::I(*v)),
            RExpr::R(v) => Ok(V::R(*v)),
            RExpr::B(v) => Ok(V::B(*v)),
            RExpr::Str(_) => Err(MachineError::Type("string outside PRINT".into())),
            RExpr::Load(slot) => {
                self.cycles += c.scalar;
                if let Some(o) = self.oracle.as_deref_mut() {
                    o.access(Loc::Scalar(*slot), false);
                }
                Ok(self.scalars[*slot].get())
            }
            RExpr::Elem(arr, subs) => {
                let idx = self.element_index(*arr, subs)?;
                self.cycles += COSTS.memory;
                if let Some(o) = self.oracle.as_deref_mut() {
                    o.access(Loc::Element(*arr, idx), false);
                }
                if !self.spec.is_empty() {
                    self.cycles += self.mark_access(*arr, idx, false);
                }
                Ok(self.arrays[*arr].get(idx))
            }
            RExpr::Un(op, arg) => {
                let v = self.eval(arg)?;
                self.cycles += c.alu;
                match op {
                    UnOp::Neg => Ok(match v {
                        V::I(x) => V::I(-x),
                        V::R(x) => V::R(-x),
                        V::B(_) => return Err(MachineError::Type("negated logical".into())),
                    }),
                    UnOp::Not => Ok(V::B(!v.as_b()?)),
                }
            }
            RExpr::Bin(op, lhs, rhs) => {
                let a = self.eval(lhs)?;
                let b = self.eval(rhs)?;
                eval_binop(&mut self.cycles, *op, a, b)
            }
            RExpr::Intrin(intr, args) => {
                let vals: Vec<V> =
                    args.iter().map(|a| self.eval(a)).collect::<Result<Vec<_>, _>>()?;
                eval_intrinsic(&mut self.cycles, *intr, &vals)
            }
        }
    }

    fn element_index(&mut self, arr: usize, subs: &[RExpr]) -> Result<usize, MachineError> {
        let mut idxs = Vec::with_capacity(subs.len());
        for s in subs {
            idxs.push(self.eval(s)?.as_i()?);
        }
        self.shapes[arr].flatten(&idxs)
    }

    /// The speculation hook of both engines' element accesses: mark the
    /// access to element `idx` of `arr` on the array's shadow, if the
    /// running `SPECULATIVE` loop tracks it, and return the cycles the
    /// marking costs. Callers test `spec.is_empty()` first (one
    /// predictable branch outside speculative loops). Inlined, with both
    /// loads ahead of the search, because that is the shape the VM's
    /// `dispatch` is as fast with as without any hook; as an out-of-line
    /// call it cost `exec_serial` 10 % (measured, like the +8 % of
    /// inlining the marking itself, which `#[inline(never)]` on
    /// [`Shadow::on_read`] and [`Shadow::on_write`] rules out).
    #[inline(always)]
    pub(crate) fn mark_access(&mut self, arr: usize, idx: usize, write: bool) -> u64 {
        // An opaque reference keeps the charge a load (see `dispatch_from`).
        let (t, mark) = (self.spec_iter, std::hint::black_box(&COSTS).spec_mark);
        match self.spec.iter_mut().find(|(a, _)| *a == arr) {
            Some((_, sh)) if write => sh.on_write(idx, t),
            Some((_, sh)) => sh.on_read(idx, t),
            None => return 0,
        }
        mark
    }
}

/// Apply a binary operator with the simulated cycle charge, for the
/// tree-walker's `eval` (the VM reaches it only through `Instr::Exec`).
/// The VM's typed opcodes restate this table; `tests/vm_equivalence.rs`
/// holds the two to the same cycles and bits.
pub(crate) fn eval_binop(
    cycles: &mut u64,
    op: BinOp,
    a: V,
    b: V,
) -> Result<V, MachineError> {
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Pow => {
            // Back ends strength-reduce small constant powers
            // (x**2 -> x*x) and power-of-two divides (the paper's
            // §3.2 code-expansion remark assumes exactly this);
            // charge accordingly.
            *cycles += match op {
                BinOp::Mul => COSTS.mul,
                BinOp::Div => match b {
                    V::I(d) if d > 0 && (d & (d - 1)) == 0 => COSTS.alu,
                    _ => COSTS.div,
                },
                BinOp::Pow => match b {
                    V::I(k) if (0..=3).contains(&k) => COSTS.mul * (k.max(1) as u64),
                    _ => COSTS.intrinsic,
                },
                _ => COSTS.alu,
            };
            if a.is_real() || b.is_real() {
                let (x, y) = (a.as_r()?, b.as_r()?);
                Ok(V::R(match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => x / y,
                    BinOp::Pow => x.powf(y),
                    _ => unreachable!(),
                }))
            } else {
                let (x, y) = (a.as_i()?, b.as_i()?);
                Ok(V::I(match op {
                    BinOp::Add => x.wrapping_add(y),
                    BinOp::Sub => x.wrapping_sub(y),
                    BinOp::Mul => x.wrapping_mul(y),
                    BinOp::Div => {
                        if y == 0 {
                            return Err(MachineError::DivByZero);
                        }
                        x.wrapping_div(y)
                    }
                    BinOp::Pow => int_pow(x, y),
                    _ => unreachable!(),
                }))
            }
        }
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne => {
            *cycles += COSTS.alu;
            let r = if a.is_real() || b.is_real() {
                let (x, y) = (a.as_r()?, b.as_r()?);
                match op {
                    BinOp::Lt => x < y,
                    BinOp::Le => x <= y,
                    BinOp::Gt => x > y,
                    BinOp::Ge => x >= y,
                    BinOp::Eq => x == y,
                    BinOp::Ne => x != y,
                    _ => unreachable!(),
                }
            } else {
                let (x, y) = (a.as_i()?, b.as_i()?);
                match op {
                    BinOp::Lt => x < y,
                    BinOp::Le => x <= y,
                    BinOp::Gt => x > y,
                    BinOp::Ge => x >= y,
                    BinOp::Eq => x == y,
                    BinOp::Ne => x != y,
                    _ => unreachable!(),
                }
            };
            Ok(V::B(r))
        }
        BinOp::And => {
            *cycles += COSTS.alu;
            Ok(V::B(a.as_b()? && b.as_b()?))
        }
        BinOp::Or => {
            *cycles += COSTS.alu;
            Ok(V::B(a.as_b()? || b.as_b()?))
        }
    }
}

/// Apply an intrinsic with the simulated cycle charge, for the
/// tree-walker as [`eval_binop`] is (the VM's `Intrin` restates it).
pub(crate) fn eval_intrinsic(
    cycles: &mut u64,
    intr: Intr,
    vals: &[V],
) -> Result<V, MachineError> {
    let cheap = matches!(
        intr,
        Intr::Mod | Intr::Max | Intr::Min | Intr::Abs | Intr::Int | Intr::Nint | Intr::ToReal | Intr::Sign
    );
    *cycles += if cheap { COSTS.mul } else { COSTS.intrinsic };
    let arity = |n: usize| -> Result<(), MachineError> {
        if vals.len() == n {
            Ok(())
        } else {
            Err(MachineError::Type(format!("intrinsic arity {n} expected")))
        }
    };
    let any_real = vals.iter().any(|v| v.is_real());
    Ok(match intr {
        Intr::Mod => {
            arity(2)?;
            if any_real {
                let (x, y) = (vals[0].as_r()?, vals[1].as_r()?);
                V::R(x % y)
            } else {
                let (x, y) = (vals[0].as_i()?, vals[1].as_i()?);
                if y == 0 {
                    return Err(MachineError::DivByZero);
                }
                V::I(x % y)
            }
        }
        Intr::Max | Intr::Min => {
            if vals.is_empty() {
                return Err(MachineError::Type("MAX/MIN need arguments".into()));
            }
            if any_real {
                let mut acc = vals[0].as_r()?;
                for v in &vals[1..] {
                    let x = v.as_r()?;
                    acc = if intr == Intr::Max { acc.max(x) } else { acc.min(x) };
                }
                V::R(acc)
            } else {
                let mut acc = vals[0].as_i()?;
                for v in &vals[1..] {
                    let x = v.as_i()?;
                    acc = if intr == Intr::Max { acc.max(x) } else { acc.min(x) };
                }
                V::I(acc)
            }
        }
        Intr::Abs => {
            arity(1)?;
            match vals[0] {
                V::I(x) => V::I(x.abs()),
                V::R(x) => V::R(x.abs()),
                V::B(_) => return Err(MachineError::Type("ABS of logical".into())),
            }
        }
        Intr::Sign => {
            arity(2)?;
            if any_real {
                let (x, y) = (vals[0].as_r()?, vals[1].as_r()?);
                V::R(x.abs() * if y < 0.0 { -1.0 } else { 1.0 })
            } else {
                let (x, y) = (vals[0].as_i()?, vals[1].as_i()?);
                V::I(x.abs() * if y < 0 { -1 } else { 1 })
            }
        }
        Intr::Sqrt => {
            arity(1)?;
            V::R(vals[0].as_r()?.sqrt())
        }
        Intr::Sin => {
            arity(1)?;
            V::R(vals[0].as_r()?.sin())
        }
        Intr::Cos => {
            arity(1)?;
            V::R(vals[0].as_r()?.cos())
        }
        Intr::Tan => {
            arity(1)?;
            V::R(vals[0].as_r()?.tan())
        }
        Intr::Exp => {
            arity(1)?;
            V::R(vals[0].as_r()?.exp())
        }
        Intr::Log => {
            arity(1)?;
            V::R(vals[0].as_r()?.ln())
        }
        Intr::Atan => {
            arity(1)?;
            V::R(vals[0].as_r()?.atan())
        }
        Intr::Int => {
            arity(1)?;
            V::I(vals[0].as_i()?)
        }
        Intr::Nint => {
            arity(1)?;
            V::I(vals[0].as_r()?.round() as i64)
        }
        Intr::ToReal => {
            arity(1)?;
            V::R(vals[0].as_r()?)
        }
    })
}

impl<'a> Interp<'a> {
    // ---- statements ----------------------------------------------------

    fn run_list(&mut self, stmts: &[RStmt]) -> Result<Flow, MachineError> {
        for s in stmts {
            match self.run_stmt(s)? {
                Flow::Normal => {}
                Flow::Stop => return Ok(Flow::Stop),
            }
        }
        Ok(Flow::Normal)
    }

    /// Charge one unit of execution fuel (one statement or loop
    /// iteration). The budget is a straight monotonic counter — unlike
    /// `cycles` it is never rewound by the codegen model or parallel
    /// bucket accounting, so it bounds *work done*, not simulated time.
    /// This is also the cooperative preemption point: the cancel token
    /// and the chaos panic hook fire here, in both engines, so a
    /// cancelled or crashed run stops at the same boundary either way.
    pub(crate) fn charge_step(&mut self) -> Result<(), MachineError> {
        self.steps += 1;
        let done = self.steps;
        if let Some(at) = self.cfg.panic_at_step {
            if done == at {
                panic!("injected: exec panic at step {at}");
            }
        }
        if let Some(tok) = &self.cfg.cancel {
            if tok.is_cancelled() {
                return Err(MachineError::Cancelled(
                    tok.reason().unwrap_or_else(|| "cancelled".into()),
                ));
            }
        }
        if let Some(limit) = self.cfg.fuel {
            if done > limit {
                return Err(MachineError::FuelExhausted { limit });
            }
        }
        Ok(())
    }

    pub(crate) fn run_stmt(&mut self, s: &RStmt) -> Result<Flow, MachineError> {
        self.charge_step()?;
        match s {
            RStmt::AssignS(slot, rhs) => {
                let v = self.eval(rhs)?;
                self.cycles += COSTS.scalar;
                if let Some(o) = self.oracle.as_deref_mut() {
                    o.access(Loc::Scalar(*slot), true);
                }
                self.scalars[*slot].set(v)?;
                self.log_store(RRef::Scalar(*slot), 0);
                Ok(Flow::Normal)
            }
            RStmt::AssignE(arr, subs, rhs) => {
                let v = self.eval(rhs)?;
                let idx = self.element_index(*arr, subs)?;
                self.cycles += COSTS.memory;
                if !self.spec.is_empty() {
                    self.cycles += self.mark_access(*arr, idx, true);
                }
                if let Some(o) = self.oracle.as_deref_mut() {
                    o.access(Loc::Element(*arr, idx), true);
                }
                self.arrays[*arr].set(idx, v)?;
                self.log_store(RRef::Array(*arr), idx);
                Ok(Flow::Normal)
            }
            RStmt::Do(l) => self.run_loop(l),
            RStmt::If(arms, else_body) => {
                for (cond, body) in arms {
                    self.cycles += COSTS.branch;
                    if self.eval(cond)?.as_b()? {
                        return self.run_list(body);
                    }
                }
                self.run_list(else_body)
            }
            RStmt::Print(items) => {
                let mut line = String::new();
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        line.push(' ');
                    }
                    match item {
                        RExpr::Str(s) => line.push_str(s),
                        other => match self.eval(other)? {
                            V::I(v) => line.push_str(&v.to_string()),
                            V::R(v) => line.push_str(&format!("{v:.6E}")),
                            V::B(v) => line.push_str(if v { "T" } else { "F" }),
                        },
                    }
                }
                self.output.push(line);
                Ok(Flow::Normal)
            }
            RStmt::Stop => Ok(Flow::Stop),
        }
    }

    /// The per-loop stats slot for `l`, keyed by its dense loop id.
    pub(crate) fn loop_entry(&mut self, l: &RLoop) -> &mut LoopExecStats {
        self.loop_slot(l.loop_id.0 as usize, &l.label)
    }

    pub(crate) fn loop_slot(&mut self, i: usize, label: &str) -> &mut LoopExecStats {
        if i >= self.loop_stats.len() {
            self.loop_stats.resize_with(i + 1, || None);
        }
        &mut self.loop_stats[i]
            .get_or_insert_with(|| (label.to_string(), LoopExecStats::default()))
            .1
    }

    /// The finished run as callers see it: the id-indexed stats folded
    /// into a label-keyed map (two loops sharing a label merge).
    fn into_result(self, wall: Duration) -> RunResult {
        let mut loops: BTreeMap<String, LoopExecStats> = BTreeMap::new();
        for (label, st) in self.loop_stats.into_iter().flatten() {
            loops.entry(label).or_default().absorb(&st);
        }
        RunResult { cycles: self.cycles, output: self.output, loops, wall }
    }

    /// Evaluate `l`'s bounds (once, F77 semantics) into its iteration space.
    fn iter_space(&mut self, l: &RLoop) -> Result<IterSpace, MachineError> {
        let init = self.eval(&l.init)?.as_i()?;
        let limit = self.eval(&l.limit)?.as_i()?;
        let step = match &l.step {
            Some(s) => self.eval(s)?.as_i()?,
            None => 1,
        };
        if step == 0 {
            return Err(MachineError::Type(format!("zero step in {}", l.label)));
        }
        let space = IterSpace::new(init, limit, step);
        // Pre-check the trip count analytically against the remaining
        // fuel: a miscompiled bound like `DO I = 1, 2000000000` must fail
        // fast with FuelExhausted, not run the budget down first.
        if let Some(fuel) = self.cfg.fuel {
            if space.trip() > fuel.saturating_sub(self.steps) {
                return Err(MachineError::FuelExhausted { limit: fuel });
            }
        }
        Ok(space)
    }

    /// What every invocation of `l` does first, under either engine:
    /// bounds (once), stats, the oracle's frame, the recorder's span.
    pub(crate) fn loop_prologue(&mut self, l: &RLoop) -> Result<Invocation, MachineError> {
        let space = self.iter_space(l)?;
        self.loop_entry(l).invocations += 1;
        let start = self.cycles;
        // Oracle frame: pushed after the bound expressions are evaluated
        // (those reads belong to the enclosing loops, not this one).
        let n_scalars = self.scalars.len();
        if let Some(o) = self.oracle.as_deref_mut() {
            o.enter_loop(l.loop_id, n_scalars);
        }
        let span = self.recorder.loop_span("exec", &l.label, l.loop_id);
        Ok(Invocation { space, start, span })
    }

    /// The mode decision, taken per invocation: run the loop to
    /// completion in the orchestration arm its annotations and the
    /// machine's state at this moment select, or return `None` — a serial
    /// invocation, which the calling engine iterates itself. `body` is
    /// where the loop's body starts in the bytecode stream when the VM
    /// drives execution (`None` = tree-walk `l.body`).
    pub(crate) fn dispatch_mode(
        &mut self,
        l: &Arc<RLoop>,
        space: IterSpace,
        body: Option<u32>,
    ) -> Result<Option<Flow>, MachineError> {
        // A proved `PARALLEL DO`, or a `SPECULATIVE` one whose iterations
        // the shadows can stamp, on a machine with processors to spare or
        // in the validator's run, which takes it as one reversed lane.
        let speculative = !l.par.spec_arrays.is_empty() && space.fits_shadow_stamps();
        let concurrent = (l.par.parallel || speculative)
            && !self.in_parallel
            && (self.cfg.procs > 1 || self.adversarial);
        Ok(Some(if concurrent && self.cfg.adaptive.is_some() && !self.adversarial {
            self.run_adaptive(l, space, body)?
        } else if concurrent {
            let plan = ChunkPlan::new(space.trip(), self.cfg.procs, self.cfg.schedule);
            self.run_concurrent(l, space, body, plan)?.0
        } else {
            self.count_loop_mode(polaris_obs::Counter::ExecLoopsSerial);
            return Ok(None);
        }))
    }

    /// What every invocation of `l` that did not fail does last.
    pub(crate) fn loop_epilogue(
        &mut self,
        l: &RLoop,
        inv: Invocation,
        flow: Flow,
    ) -> Result<(), MachineError> {
        inv.span.end();
        if let Some(o) = self.oracle.as_deref_mut() {
            o.exit_loop();
        }
        let spent = self.cycles - inv.start;
        self.loop_entry(l).cycles += spent;
        // F77 semantics: the loop variable holds the first value past the
        // limit after the loop completes — and this must hold regardless
        // of execution order (the variable is implicitly private).
        if flow == Flow::Normal {
            self.scalars[l.var].set(V::I(inv.space.exit_value()))?;
        }
        Ok(())
    }

    /// One loop invocation of the tree-walker (the VM's is
    /// `Instr::LoopEnter`): the shared prologue, mode decision and
    /// epilogue around its own serial loop.
    pub(crate) fn run_loop(&mut self, l: &Arc<RLoop>) -> Result<Flow, MachineError> {
        let inv = self.loop_prologue(l)?;
        let flow = match self.dispatch_mode(l, inv.space, None)? {
            Some(flow) => flow,
            None => self.run_serial_loop(l, inv.space, None)?,
        };
        self.loop_epilogue(l, inv, flow)?;
        Ok(flow)
    }

    /// Adaptive dispatch for one loop invocation: ask the controller
    /// whether to run it serially or concurrently (on how many workers,
    /// chunked how), run it, and feed the deterministic profile back —
    /// the chunk cycles of a DOALL, the PD verdict of a speculation. The
    /// controller only chooses a schedule; whether a concurrent
    /// invocation is a DOALL or a speculation is `run_concurrent`'s
    /// reading of the annotation, so an arbitrary adaptation history can
    /// change *performance*, never results (the determinism contract in
    /// DESIGN.md).
    fn run_adaptive(
        &mut self,
        l: &Arc<RLoop>,
        space: IterSpace,
        body: Option<u32>,
    ) -> Result<Flow, MachineError> {
        use crate::adaptive::{DecideEvent, LoopHints, Observation};
        let ctrl = Arc::clone(self.cfg.adaptive.as_ref().expect("adaptive dispatch without controller"));
        let trip = space.trip();
        let hints = LoopHints { parallel: l.par.parallel, trip, procs: self.cfg.procs };
        let d = ctrl.decide(l.loop_id.0, &l.label, hints);
        if self.recorder.is_enabled() {
            use polaris_obs::Counter as C;
            self.recorder.count(C::AdaptiveDecisions, 1);
            let ev = match d.event {
                DecideEvent::Measure => Some(C::AdaptiveMeasurements),
                DecideEvent::Redispatch => Some(C::AdaptiveRedispatch),
                DecideEvent::Throttle => Some(C::AdaptiveThrottled),
                DecideEvent::Probe => Some(C::AdaptiveProbes),
                DecideEvent::CorruptReset => Some(C::AdaptiveTableCorrupt),
                DecideEvent::Forced => None,
            };
            if let Some(ev) = ev {
                self.recorder.count(ev, 1);
            }
            let name = format!("{}:{}", d.event.as_str(), d.strategy);
            self.recorder.span_with("adaptive", name, 0, Some(l.loop_id), None).end();
        }
        let (flow, chunk_cycles, misspeculated) = match d.chunking {
            None => {
                self.count_loop_mode(polaris_obs::Counter::ExecLoopsSerial);
                (self.run_serial_loop(l, space, body)?, Vec::new(), None)
            }
            Some(schedule) if l.par.parallel => {
                let plan = ChunkPlan::new(trip, d.threads, schedule);
                let (flow, chunk_cycles) = self.run_concurrent(l, space, body, plan)?;
                (flow, chunk_cycles, None)
            }
            // A speculation keeps the configured plan, and what it tells
            // the controller is its PD verdict.
            Some(_) => {
                let fails_before = self.loop_entry(l).spec_fail;
                let plan = ChunkPlan::new(trip, self.cfg.procs, self.cfg.schedule);
                let (flow, _) = self.run_concurrent(l, space, body, plan)?;
                (flow, Vec::new(), Some(self.loop_entry(l).spec_fail > fails_before))
            }
        };
        ctrl.observe(l.loop_id.0, Observation { trip, chunk_cycles, misspeculated });
        Ok(flow)
    }

    /// One dispatch decision for a lowered loop: bump the per-mode counter
    /// and the total, so `exec.loops.{parallel,speculative,serial,adversarial}`
    /// always partition `exec.loops.total`.
    fn count_loop_mode(&self, mode: polaris_obs::Counter) {
        if self.recorder.is_enabled() {
            self.recorder.count(mode, 1);
            self.recorder.count(polaris_obs::Counter::ExecLoopsTotal, 1);
        }
    }

    /// Start iteration `idx` of `space`: what an iteration does before
    /// its body, under either engine and in every mode. (The oracle only
    /// rides serial runs, so only serial iterations reach its hook.)
    #[inline(always)]
    pub(crate) fn begin_iteration(
        &mut self,
        l: &RLoop,
        space: IterSpace,
        idx: u64,
    ) -> Result<(), MachineError> {
        if let Some(o) = self.oracle.as_deref_mut() {
            o.begin_iteration(idx);
        }
        if !self.quiet_steps {
            self.charge_step()?;
        }
        self.cycles += COSTS.loop_iter;
        self.scalars[l.var].set(V::I(space.value(idx)))
    }

    /// Finish an iteration whose body began at `b0` cycles: the codegen
    /// model rescales what an innermost body was charged.
    #[inline(always)]
    pub(crate) fn end_iteration(&mut self, l: &RLoop, b0: u64) {
        if l.innermost && self.cfg.codegen.enabled {
            let delta = self.cycles - b0;
            self.cycles = b0 + self.cfg.codegen.scale(delta, l.has_conditional);
        }
    }

    /// The register frame and stream an orchestration arm runs `body`
    /// in; `None` for the tree-walker. Hand it back with
    /// [`Self::release_body`] (a frame lost to an early return only
    /// costs the pool a reallocation).
    pub(crate) fn body_frame(&mut self, body: Option<u32>) -> Option<BodyFrame> {
        let start = body?;
        let bc = Arc::clone(self.bc.as_ref().expect("VM loop body without bytecode"));
        let mut regs = self.vm_pool.pop().unwrap_or_default();
        regs.resize(bc.blocks[bc.entry as usize].max_regs, 0);
        Some(BodyFrame { bc, start, regs })
    }

    pub(crate) fn release_body(&mut self, frame: Option<BodyFrame>) {
        self.vm_pool.extend(frame.map(|f| f.regs));
    }

    /// The range runner: iterations `r.idx..r.end` of an invocation an
    /// orchestration arm runs, in order. `body` is the arm's
    /// [`Self::body_frame`]: the VM runs the whole range as one
    /// activation of its stream, whose `LoopBack` goes on to the next
    /// iteration ([`Self::next_in_range`]); the tree-walker runs the same
    /// steps around `l.body`. Returns at `r.end`, on `Stop` (the iteration
    /// that stopped is finished) or on an error, with `r.idx` the failing
    /// iteration.
    pub(crate) fn run_range(
        &mut self,
        l: &RLoop,
        r: &mut ArmRange,
        body: Option<&mut BodyFrame>,
    ) -> Result<Flow, MachineError> {
        if r.idx >= r.end {
            return Ok(Flow::Normal);
        }
        self.open_iteration(l, r)?;
        let flow = match body {
            Some(f) => self.dispatch(&f.bc, &mut f.regs, f.start as usize, Some(r))?,
            None => loop {
                if self.run_list(&l.body)? == Flow::Stop {
                    break Flow::Stop;
                }
                if !self.next_in_range(l, r)? {
                    break Flow::Normal;
                }
            },
        };
        if flow == Flow::Stop {
            self.close_iteration(l, r);
        }
        Ok(flow)
    }

    /// Between two iterations of a range: finish `r.idx` and, unless it
    /// was the last, begin the next. False at the end of the range. Out
    /// of line, so the VM's dispatch loop, whose serial path never calls
    /// it, keeps its shape.
    #[inline(never)]
    pub(crate) fn next_in_range(&mut self, l: &RLoop, r: &mut ArmRange) -> Result<bool, MachineError> {
        self.close_iteration(l, r);
        r.idx += 1;
        if r.idx == r.end {
            return Ok(false);
        }
        self.open_iteration(l, r)?;
        Ok(true)
    }

    /// Begin iteration `r.idx` of a range. What it touches of the
    /// speculated arrays is marked under the stamp `idx` (there are no
    /// shadows outside a `SPECULATIVE` loop; `dispatch_mode` checked the
    /// stamp fits).
    fn open_iteration(&mut self, l: &RLoop, r: &mut ArmRange) -> Result<(), MachineError> {
        self.spec_iter = r.idx as u32;
        self.begin_iteration(l, r.space, r.idx)?;
        r.b0 = self.cycles;
        Ok(())
    }

    fn close_iteration(&mut self, l: &RLoop, r: &ArmRange) {
        self.end_iteration(l, r.b0);
        for (_, sh) in self.spec.iter_mut() {
            sh.end_iteration(r.idx as u32);
        }
    }

    /// A serial invocation iterated from outside the dispatch loop: every
    /// one of the tree-walker's, and the VM's only when the adaptive
    /// controller runs a concurrent loop serially (its `observe` needs
    /// the loop to have returned), as one range. The tree-walker's stamps
    /// nothing: it also runs the serial loops nested in a speculation.
    pub(crate) fn run_serial_loop(
        &mut self,
        l: &RLoop,
        space: IterSpace,
        body: Option<u32>,
    ) -> Result<Flow, MachineError> {
        if let Some(mut frame) = self.body_frame(body) {
            debug_assert!(self.spec.is_empty(), "an adaptive serial loop inside a speculation");
            let flow = self.run_range(l, &mut ArmRange::new(space, 0, space.trip()), Some(&mut frame));
            self.release_body(Some(frame));
            return flow;
        }
        for idx in 0..space.trip() {
            self.begin_iteration(l, space, idx)?;
            let b0 = self.cycles;
            let flow = self.run_list(&l.body)?;
            self.end_iteration(l, b0);
            if flow == Flow::Stop {
                return Ok(Flow::Stop);
            }
        }
        Ok(Flow::Normal)
    }

    /// An unmarked shadow per array `l` speculates on: what one executor
    /// of its iterations (the in-order simulation, a threaded lane) marks.
    pub(crate) fn fresh_shadows(&self, l: &RLoop) -> Vec<(usize, Shadow)> {
        l.par.spec_arrays.iter().map(|&a| (a, Shadow::new(self.arrays[a].len()))).collect()
    }

    /// One concurrent invocation run in order on this thread, chunk by
    /// chunk in plan order (which is iteration order: chunks are
    /// contiguous), and billed from its chunks' cycles
    /// ([`Self::bill_invocation`]), a `SPECULATIVE` loop with the PD
    /// verdict of the shadows it marked (its values are the serial loop's
    /// whatever the verdict). This is the simulated backend, and what a
    /// fork falls back to: the serial re-execution of a misspeculation
    /// (its verdict, its error if there is one, and the attempt +
    /// re-execution bill, in one), an `in_order` loop, a full reduction
    /// log. Returns the bucket cycles; `self.cycles` is left where it
    /// started plus the bill.
    fn run_simulated(
        &mut self,
        l: &RLoop,
        space: IterSpace,
        plan: &ChunkPlan,
        body: Option<u32>,
    ) -> Result<(Flow, Vec<u64>), MachineError> {
        debug_assert!(self.spec.is_empty(), "nested speculation");
        self.spec = self.fresh_shadows(l);
        let c0 = self.cycles;
        let mut chunks = vec![0u64; plan.n_chunks()];
        self.in_parallel = true;
        let mut flow = Flow::Normal;
        let mut frame = self.body_frame(body);
        for (k, spent) in chunks.iter_mut().enumerate() {
            let (start, end) = plan.bounds(k);
            let b0 = self.cycles;
            flow = self.run_range(l, &mut ArmRange::new(space, start, end), frame.as_mut())?;
            *spent = self.cycles - b0;
            if flow == Flow::Stop {
                break;
            }
        }
        self.release_body(frame);
        self.in_parallel = false;
        self.cycles = c0;
        let shadows = std::mem::take(&mut self.spec);
        let passed = shadows.iter().all(|(_, sh)| PdVerdict::of(&[sh], 0..sh.len()).plain_ok());
        let marks = shadows.iter().map(|(_, sh)| sh.marks_done()).sum();
        Ok((flow, self.bill_invocation(l, plan, &chunks, marks, passed)))
    }

    /// One concurrent invocation over `plan` — a proved `PARALLEL DO`,
    /// or a `SPECULATIVE` loop, as its annotation says — forked on real
    /// threads, or in the validator's run as one reversed lane
    /// ([`crate::threaded::run_threaded_loop`]). An invocation with no
    /// iteration, a loop lowering marked `in_order` (a `STOP`, a stale
    /// value that could reach an inner `DO`) and one the join sends back
    /// are simulated in order. Returns the cycles it ran, per bucket when
    /// simulated and per chunk when forked.
    fn run_concurrent(
        &mut self,
        l: &Arc<RLoop>,
        space: IterSpace,
        body: Option<u32>,
        plan: ChunkPlan,
    ) -> Result<(Flow, Vec<u64>), MachineError> {
        use polaris_obs::Counter::{ExecLoopsAdversarial, ExecLoopsParallel, ExecLoopsSpeculative};
        self.count_loop_mode(if self.adversarial {
            ExecLoopsAdversarial
        } else if l.par.parallel {
            ExecLoopsParallel
        } else {
            ExecLoopsSpeculative
        });
        let threads = self.adversarial || self.cfg.exec_mode == ExecMode::Threaded;
        if threads && !l.in_order && space.trip() > 0 {
            // The lanes store into memory in place: what the join can send
            // back to run in order is saved first, and restored if it does.
            let saved: Vec<(usize, ArrData)> =
                l.saved(self.adversarial).iter().map(|&a| (a, self.arrays[a].copy())).collect();
            let validate = self.adversarial.then_some((PIECE_BUDGET, UPDATE_BUDGET));
            let forked = crate::threaded::run_threaded_loop(self, l, space, body, plan, validate)?;
            if let Some(ran) = forked {
                return Ok(ran);
            }
            for (a, copy) in saved {
                self.arrays[a] = copy;
            }
        }
        self.run_simulated(l, space, &plan, body)
    }

    /// Execute the unit's top-level code under the configured engine:
    /// the tree-walker runs `image.code` directly; the VM dispatches the
    /// stream [`Self::new`] compiled, from its first instruction.
    pub(crate) fn run_program(&mut self, image: &Image) -> Result<Flow, MachineError> {
        if self.bc.is_none() {
            return self.run_list(&image.code);
        }
        let mut frame = self.body_frame(Some(0)).expect("the VM engine compiled its bytecode");
        let flow = self.dispatch(&frame.bc, &mut frame.regs, 0, None);
        self.release_body(Some(frame));
        flow
    }
}

pub(crate) fn int_pow(base: i64, exp: i64) -> i64 {
    if exp < 0 {
        return if base.abs() == 1 {
            if exp % 2 == 0 {
                1
            } else {
                base
            }
        } else {
            0
        };
    }
    let mut acc: i64 = 1;
    for _ in 0..exp {
        acc = acc.wrapping_mul(base);
    }
    acc
}

// ---- public entry points ---------------------------------------------

/// Run `program` on the machine (simulated or real-threaded per
/// `cfg.exec_mode`).
pub fn run(program: &Program, cfg: &MachineConfig) -> Result<RunResult, MachineError> {
    run_recorded(program, cfg, &polaris_obs::Recorder::disabled())
}

/// Lower `program`, run it under `cfg` with `rec` attached, and hand the
/// finished interpreter to `finish` before it is folded into the result.
pub(crate) fn run_with<T>(
    program: &Program,
    cfg: &MachineConfig,
    rec: &polaris_obs::Recorder,
    finish: impl FnOnce(&Interp<'_>, &Image) -> T,
) -> Result<(RunResult, T), MachineError> {
    let t0 = Instant::now();
    let mut image = lower_with_cap(program, cfg.memory_cap)?;
    let mut interp = Interp::new(&mut image, cfg, None)?;
    interp.recorder = rec.clone();
    let exec_span = rec.span("exec", "exec");
    let flow = interp.run_program(&image);
    exec_span.end();
    flow?;
    let extra = finish(&interp, &image);
    Ok((interp.into_result(t0.elapsed()), extra))
}

/// A bit-exact snapshot of final memory, for differential comparison
/// between engines and execution modes: each scalar as a tagged exact
/// rendering (REALs by bit pattern, so `-0.0 != 0.0` and NaNs compare
/// by payload) and each array as an FNV-1a hash over its element bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateDump {
    /// `(name, "I:<v>" | "R:<f64 bits as hex>" | "B:<v>")` per scalar.
    pub scalars: Vec<(Name, String)>,
    /// `(name, fnv1a over element bit patterns)` per array.
    pub arrays: Vec<(Name, u64)>,
}

pub(crate) fn dump_state(interp: &Interp<'_>, image: &Image) -> StateDump {
    let scalars = image
        .scalar_names
        .iter()
        .cloned()
        .zip(interp.scalars.iter().map(|s| match s {
            Scalar::I(v) => format!("I:{v}"),
            Scalar::R(v) => format!("R:{:016x}", v.to_bits()),
            Scalar::B(v) => format!("B:{v}"),
        }))
        .collect();
    let arrays = image
        .shapes
        .iter()
        .zip(&interp.arrays)
        .map(|(shape, a)| {
            let h = match a {
                ArrData::I(v) => crate::fnv1a(v.iter().flat_map(|x| x.load(Relaxed).to_le_bytes())),
                ArrData::R(v) => crate::fnv1a(v.iter().flat_map(|x| x.load(Relaxed).to_le_bytes())),
                ArrData::B(v) => crate::fnv1a(v.iter().map(|x| u8::from(x.load(Relaxed)))),
            };
            (shape.name.clone(), h)
        })
        .collect();
    StateDump { scalars, arrays }
}

/// [`run`] + a [`StateDump`] of the final memory state. The equivalence
/// suites use this to hold engines/modes to *equal final state*, not
/// just equal output.
pub fn run_with_state(
    program: &Program,
    cfg: &MachineConfig,
) -> Result<(RunResult, StateDump), MachineError> {
    run_with(program, cfg, &polaris_obs::Recorder::disabled(), dump_state)
}

/// [`run`] with an observability [`polaris_obs::Recorder`] attached: an
/// `exec` root span encloses a `loop:<label>` span (carrying the loop's
/// provenance [`polaris_ir::stmt::LoopId`]) per loop invocation, and the
/// dispatch decisions, LRPD verdicts and threaded-backend work are
/// mirrored into typed counters. `run` is exactly this with
/// `Recorder::disabled()`.
pub fn run_recorded(
    program: &Program,
    cfg: &MachineConfig,
    rec: &polaris_obs::Recorder,
) -> Result<RunResult, MachineError> {
    run_with(program, cfg, rec, |_, _| ()).map(|(result, ())| result)
}

/// Run serially (annotations have no effect; the serial reference time).
pub fn run_serial(program: &Program) -> Result<RunResult, MachineError> {
    run(program, &MachineConfig::serial())
}

/// Pieces the validator's reversed lane may cut an invocation into: one
/// iteration each up to here, so memory does not grow with the trip
/// count. The largest `PARALLEL DO` the test suites validate has 127 066
/// trips (OCEAN's reduction).
const PIECE_BUDGET: usize = 1 << 17;

/// Reduction updates the validator's reversed lane may hold: it reaches
/// the frontier last, so it folds nothing before it is done, and past
/// this many (3 MB at most) the invocation runs in order.
const UPDATE_BUDGET: usize = 1 << 18;

/// Validate the compiler's parallelization: execute sequentially — the
/// reference — then adversarially, and compare the final memory state
/// (less what a loop privatizes without copy-out) and the output, bit for
/// bit. The adversarial run forks every `PARALLEL DO` and `SPECULATIVE`
/// loop as one lane on the calling thread that runs its iterations last
/// to first, with the privates poisoned before each, and commits it
/// through the join of the real-thread backend (a speculation on a
/// passing PD test): what an annotation leaves out (a shared scalar, a
/// carried value, a reduction) then differs from the sequential run, as
/// it would on threads. Returns the two results on success.
pub fn run_validated(
    program: &Program,
    cfg: &MachineConfig,
) -> Result<(RunResult, RunResult), MachineError> {
    let mut image = lower_with_cap(program, cfg.memory_cap)?;
    let mut serial_cfg = MachineConfig::serial();
    serial_cfg.fuel = cfg.fuel;
    serial_cfg.memory_cap = cfg.memory_cap;
    serial_cfg.engine = cfg.engine;
    let t_seq = Instant::now();
    // Each run takes the image's arrays as its memory, and a handle on
    // them shares their elements: the adversarial run starts from a copy.
    let initial: Vec<ArrData> = image.arrays.iter().map(ArrData::copy).collect();
    let mut seq = Interp::new(&mut image, &serial_cfg, None)?;
    seq.run_program(&image)?;
    // The comparison needs the sequential run's state, scalars and
    // result; its arrays go before the adversarial run starts.
    let want = dump_state(&seq, &image);
    // One stream for both runs, unless only one of them counts steps.
    let bc = seq.bc.clone().filter(|_| seq.quiet_steps == Interp::quiet(cfg));
    let seq_scalars = std::mem::take(&mut seq.scalars);
    let seq = seq.into_result(t_seq.elapsed());
    let t_adv = Instant::now();
    image.arrays = initial;
    let mut adv = Interp::new(&mut image, cfg, bc)?;
    adv.adversarial = true;
    adv.run_program(&image)?;
    let adv_wall = t_adv.elapsed();

    // Variables privatized without copy-out have unspecified values after
    // a parallel loop: exclude them from the comparison. (If a later use
    // actually depended on them, the dependence driver would have
    // demanded copy-out or refused privatization; a poisoned value that
    // *does* flow somewhere observable still trips the comparison there.)
    let (skip_scalars, skip_arrays) = private_without_copyout(&image.code);
    let got = dump_state(&adv, &image);
    if let Some(i) = first_difference(&want.scalars, &got.scalars, &skip_scalars) {
        return Err(MachineError::ValidationMismatch(format!(
            "scalar `{}`: sequential {:?} vs adversarial {:?}",
            want.scalars[i].0, seq_scalars[i], adv.scalars[i]
        )));
    }
    if let Some(i) = first_difference(&want.arrays, &got.arrays, &skip_arrays) {
        return Err(MachineError::ValidationMismatch(format!(
            "array `{}` differs between sequential and adversarial runs",
            want.arrays[i].0
        )));
    }
    if seq.output != adv.output {
        return Err(MachineError::ValidationMismatch(format!(
            "program output differs:\n  seq: {:?}\n  adv: {:?}",
            seq.output, adv.output
        )));
    }
    Ok((seq, adv.into_result(adv_wall)))
}

/// The first slot where `a` and `b` differ, `skip` left out.
fn first_difference<T: PartialEq>(a: &[T], b: &[T], skip: &[usize]) -> Option<usize> {
    (0..a.len()).find(|&i| a[i] != b[i] && !skip.contains(&i))
}

/// Slots privatized (without copy-out) in any loop of the code.
fn private_without_copyout(code: &[RStmt]) -> (Vec<usize>, Vec<usize>) {
    let mut scalars = Vec::new();
    let mut arrays = Vec::new();
    crate::lower::walk(code, &mut |s| {
        if let RStmt::Do(l) = s {
            let copied_out = |p: &&usize| l.par.copy_out_scalars.contains(p);
            scalars.extend(l.par.private_scalars.iter().filter(|p| !copied_out(p)));
            arrays.extend(&l.par.private_arrays);
        }
    });
    (scalars, arrays)
}

/// Line-by-line output comparison with a relative tolerance on numeric
/// fields (formatted REALs may differ in the last digits between
/// differently-associated reductions). Public for the differential fuzz
/// harness.
pub fn outputs_match(a: &[String], b: &[String], tol: f64) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.iter().zip(b).all(|(x, y)| {
        if x == y {
            return true;
        }
        let tx: Vec<&str> = x.split_whitespace().collect();
        let ty: Vec<&str> = y.split_whitespace().collect();
        tx.len() == ty.len()
            && tx.iter().zip(&ty).all(|(u, v)| {
                if u == v {
                    return true;
                }
                match (u.parse::<f64>(), v.parse::<f64>()) {
                    (Ok(fu), Ok(fv)) => {
                        let scale = fu.abs().max(fv.abs()).max(1.0);
                        (fu - fv).abs() <= tol * scale
                    }
                    _ => false,
                }
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Schedule;

    fn parse(src: &str) -> Program {
        polaris_ir::parse(src).unwrap()
    }

    #[test]
    fn sequential_semantics() {
        let p = parse(
            "program t\nreal a(10)\ns = 0.0\ndo i = 1, 10\n  a(i) = i * 2.0\n  s = s + a(i)\nend do\nprint *, 'sum', s\nend\n",
        );
        let r = run_serial(&p).unwrap();
        assert_eq!(r.output.len(), 1);
        assert!(r.output[0].contains("sum"));
        assert!(r.output[0].contains("1.100000E2"), "{:?}", r.output);
        assert!(r.cycles > 0);
    }

    #[test]
    fn stop_halts() {
        let p = parse("program t\nx = 1.0\nstop\ny = 2.0\nprint *, y\nend\n");
        let r = run_serial(&p).unwrap();
        assert!(r.output.is_empty());
    }

    #[test]
    fn if_else_and_intrinsics() {
        let p = parse(
            "program t\nx = -3.5\nif (x < 0.0) then\n  y = abs(x)\nelse\n  y = sqrt(x)\nend if\nprint *, y, max(1, 2, 3), mod(7, 3)\nend\n",
        );
        let r = run_serial(&p).unwrap();
        assert!(r.output[0].contains("3.500000E0"), "{:?}", r.output);
        assert!(r.output[0].contains('3'));
        assert!(r.output[0].contains('1'));
    }

    #[test]
    fn parallel_loop_faster_than_serial() {
        let src = "program t\nreal a(10000)\n!$polaris doall\ndo i = 1, 10000\n  a(i) = i * 2.0 + 1.0\nend do\nprint *, a(5000)\nend\n";
        let p = parse(src);
        let serial = run_serial(&p).unwrap();
        let par = run(&p, &MachineConfig::challenge_8()).unwrap();
        assert_eq!(serial.output, par.output);
        let speedup = serial.cycles as f64 / par.cycles as f64;
        assert!(speedup > 4.0, "speedup {speedup} too low ({} vs {})", serial.cycles, par.cycles);
        assert!(speedup <= 8.0, "speedup {speedup} exceeds processor count");
    }

    #[test]
    fn fork_join_overhead_hurts_tiny_loops() {
        let src = "program t\nreal a(4)\ndo k = 1, 2000\n!$polaris doall\ndo i = 1, 4\n  a(i) = i * 1.0\nend do\nend do\nprint *, a(1)\nend\n";
        let p = parse(src);
        let serial = run_serial(&p).unwrap();
        let par = run(&p, &MachineConfig::challenge_8()).unwrap();
        assert!(par.cycles > serial.cycles, "tiny parallel loops must lose");
    }

    #[test]
    fn loop_stats_recorded() {
        let src = "program t\nreal a(5000)\n!$polaris doall\ndo i = 1, 5000\n  a(i) = 1.0\nend do\nend\n";
        let p = parse(src);
        let r = run(&p, &MachineConfig::challenge_8()).unwrap();
        let (label, stats) = r.loops.iter().next().unwrap();
        assert!(label.contains("do"));
        assert_eq!(stats.invocations, 1);
        assert_eq!(stats.parallel_invocations, 1);
    }

    #[test]
    fn nested_parallel_only_outer_counts() {
        let src = "program t\nreal a(40,40)\n!$polaris doall private(J)\ndo i = 1, 40\n!$polaris doall\ndo j = 1, 40\n  a(i,j) = 1.0\nend do\nend do\nend\n";
        let p = parse(src);
        let r = run(&p, &MachineConfig::challenge_8()).unwrap();
        let outer: Vec<_> = r.loops.values().collect();
        let total_parallel: u64 = outer.iter().map(|s| s.parallel_invocations).sum();
        // outer once; inner 40 invocations all serial
        assert_eq!(total_parallel, 1, "{:?}", r.loops);
    }

    #[test]
    fn validation_passes_for_correct_privatization() {
        let src = "program t\nreal a(100), b(100)\ndo k = 1, 100\n  b(k) = k * 1.0\nend do\n!$polaris doall private(T)\ndo i = 1, 100\n  t = b(i) * 2.0\n  a(i) = t + 1.0\nend do\nprint *, a(7)\nend\n";
        let p = parse(src);
        run_validated(&p, &MachineConfig::challenge_8()).unwrap();
    }

    #[test]
    fn validation_catches_bogus_parallel_annotation() {
        // A(i) = A(i-1) + 1 marked parallel: reverse-order execution
        // produces different values.
        let src = "program t\nreal a(101)\na(1) = 1.0\n!$polaris doall\ndo i = 2, 101\n  a(i) = a(i-1) + 1.0\nend do\nprint *, a(101)\nend\n";
        let p = parse(src);
        let err = run_validated(&p, &MachineConfig::challenge_8()).unwrap_err();
        assert!(matches!(err, MachineError::ValidationMismatch(_)), "{err}");
    }

    #[test]
    fn validation_catches_missing_privatization() {
        // T is carried shared state, read before it is written, but marked
        // parallel without PRIVATE.
        let src = "program t\nreal a(100), b(100)\ndo k = 1, 100\n  b(k) = k * 1.0\nend do\nt = 0.0\n!$polaris doall\ndo i = 1, 100\n  a(i) = t\n  t = b(i)\nend do\nprint *, a(3)\nend\n";
        let err = run_validated(&parse(src), &MachineConfig::challenge_8()).unwrap_err();
        assert!(matches!(err, MachineError::ValidationMismatch(_)));
    }

    /// `run_validated` on the paper's machine.
    fn validated(src: &str) -> Result<(RunResult, RunResult), MachineError> {
        run_validated(&parse(src), &MachineConfig::challenge_8())
    }

    /// The counters of the adversarial run of `src` alone.
    fn adversarial_counters(src: &str) -> BTreeMap<&'static str, u64> {
        let cfg = MachineConfig::challenge_8();
        let mut image = lower_with_cap(&parse(src), None).unwrap();
        let mut adv = Interp::new(&mut image, &cfg, None).unwrap();
        adv.adversarial = true;
        adv.recorder = polaris_obs::Recorder::monotonic();
        adv.run_program(&image).unwrap();
        adv.recorder.counters()
    }

    /// A shared scalar the body stores without `LASTPRIVATE`: serial
    /// leaves 5.0 in it, threads the value it had before the loop, since
    /// the join commits no scalar but a copy-out — and so does the
    /// validator's lane.
    #[test]
    fn validation_catches_a_shared_scalar_without_lastprivate() {
        let src = "program t\nreal a(5)\nx = 1.0\n!$polaris doall\ndo i = 1, 5\n  x = 5.0\n  a(i) = x * i\nend do\nprint *, x\nend\n";
        assert_eq!(run_serial(&parse(src)).unwrap().output, ["5.000000E0"]);
        let threaded = run(&parse(src), &MachineConfig::threaded(2, Schedule::Static)).unwrap();
        assert_eq!(threaded.output, ["1.000000E0"]);
        match validated(src) {
            Err(MachineError::ValidationMismatch(m)) => assert!(m.starts_with("scalar `X`"), "{m}"),
            other => panic!("{other:?}"),
        }
    }

    /// A `PRINT` in a DOALL prints in iteration order, as on threads: the
    /// join appends the pieces' output in piece order.
    #[test]
    fn validation_keeps_the_output_of_a_doall_in_iteration_order() {
        let (seq, adv) = validated("program t\n!$polaris doall\ndo i = 1, 6\n  print *, 'iter', i\nend do\nend\n").unwrap();
        assert_eq!(seq.output.len(), 6);
        assert_eq!(adv.output, seq.output);
    }

    /// A DOALL that may `STOP` runs in order, as on threads: no iteration
    /// after the one that stops leaves a store.
    #[test]
    fn validation_runs_a_stop_bearing_doall_in_order() {
        validated("program t\nreal a(100)\n!$polaris doall\ndo i = 1, 100\n  a(i) = i * 1.0\n  if (i == 13) then\n    stop\n  end if\nend do\nprint *, a(1)\nend\n").unwrap();
    }

    /// A reduction whose reversed lane holds [`UPDATE_BUDGET`] updates
    /// runs in order: it validates, and no chunk of it is joined.
    #[test]
    fn validation_of_a_reduction_past_the_log_cap_runs_it_in_order() {
        let trips = 2 * UPDATE_BUDGET + 2;
        let src = format!("program t\ns = 0.0\n!$polaris doall reduction(+:S)\ndo i = 1, {trips}\n  s = s + 1.0 / i\nend do\nprint *, s\nend\n");
        validated(&src).unwrap();
        let counters = adversarial_counters(&src);
        assert_eq!(counters.get("exec.loops.adversarial"), Some(&1));
        assert_eq!(counters.get("exec.threaded.chunks"), None, "a chunk joined");
    }

    /// Past [`PIECE_BUDGET`] iterations the lane's pieces hold several
    /// each, still claimed last to first: a DOALL validates through the
    /// join, and a carried `a(i) = a(i-1) + 1.0` is still caught.
    #[test]
    fn validation_past_the_piece_budget_still_runs_pieces_last_to_first() {
        let n = PIECE_BUDGET + 3;
        let program = |body: &str| {
            format!("program t\nreal a({n})\na(1) = 1.0\n!$polaris doall\ndo i = 2, {n}\n  {body}\nend do\nprint *, a({n})\nend\n")
        };
        let doall = program("a(i) = i * 2.0");
        validated(&doall).unwrap();
        assert_eq!(adversarial_counters(&doall).get("exec.threaded.chunks"), Some(&8));
        let err = validated(&program("a(i) = a(i-1) + 1.0")).unwrap_err();
        assert!(matches!(err, MachineError::ValidationMismatch(_)), "{err}");
    }

    /// A scatter through a permutation, speculated on `A`: 128 stores
    /// into 128 distinct elements.
    const SCATTER: &str = "program t\nreal a(128)\ninteger key(128)\ndo k = 1, 128\n  key(k) = mod(k * 77, 128) + 1\nend do\n!$polaris doall speculative(A)\ndo i = 1, 128\n  a(key(i)) = i * 1.0\nend do\nprint *, a(1), a(128)\nend\n";

    /// The validator forks a speculation as it forks a DOALL: its PD test
    /// passes on the reversed lane's shadows and the join commits the
    /// lane. One whose iterations collide (`a(key(i))` with 7 distinct
    /// keys, read and written) fails the test and runs in order, as on
    /// threads, and validates too; no chunk of it is joined.
    #[test]
    fn validation_forks_a_speculation_and_commits_it_on_a_passing_pd_test() {
        validated(SCATTER).unwrap();
        let counters = adversarial_counters(SCATTER);
        assert_eq!(counters.get("exec.loops.adversarial"), Some(&1));
        assert!(counters.get("exec.threaded.chunks").is_some_and(|&n| n > 0), "{counters:?}");
        assert_eq!(counters.get("lrpd.pass"), Some(&1), "{counters:?}");
        let carried = "program t\nreal a(128)\ninteger key(128)\ndo k = 1, 128\n  key(k) = mod(k, 7) + 1\nend do\n!$polaris doall speculative(A)\ndo i = 1, 128\n  a(key(i)) = a(key(i)) * 0.5 + i\nend do\nprint *, a(1), a(7)\nend\n";
        let (seq, adv) = validated(carried).unwrap();
        assert_eq!(adv.output, seq.output);
        let counters = adversarial_counters(carried);
        assert_eq!(counters.get("exec.loops.adversarial"), Some(&1));
        assert_eq!(counters.get("exec.threaded.chunks"), None, "a failed speculation joined");
    }

    /// The validator's run bills a DOALL and a speculation as the
    /// simulator does: its cycles are a simulated `challenge_8` run's.
    #[test]
    fn validation_bills_as_the_simulator() {
        let doall = "program t\nreal a(100), b(100)\ndo k = 1, 100\n  b(k) = k * 1.0\nend do\n!$polaris doall private(T)\ndo i = 1, 100\n  t = b(i) * 2.0\n  a(i) = t + 1.0\nend do\nprint *, a(7)\nend\n";
        let reduction = "program t\nreal b(1000)\ndo k = 1, 1000\n  b(k) = k * 0.5\nend do\ns = 100.0\n!$polaris doall reduction(+:S)\ndo i = 1, 1000\n  s = s + b(i)\nend do\nprint *, s\nend\n";
        for src in [doall, reduction, SCATTER] {
            let (_, adv) = validated(src).unwrap();
            assert_eq!(adv.cycles, run(&parse(src), &MachineConfig::challenge_8()).unwrap().cycles, "{src}");
        }
    }

    #[test]
    fn validation_reduction_semantics() {
        let src = "program t\nreal b(1000)\ndo k = 1, 1000\n  b(k) = k * 0.5\nend do\ns = 100.0\n!$polaris doall reduction(+:S)\ndo i = 1, 1000\n  s = s + b(i)\nend do\nprint *, s\nend\n";
        let p = parse(src);
        let (seq, adv) = run_validated(&p, &MachineConfig::challenge_8()).unwrap();
        assert_eq!(seq.output.len(), 1);
        assert_eq!(adv.output.len(), 1);
    }

    #[test]
    fn validation_max_reduction() {
        let src = "program t\nreal b(500)\ndo k = 1, 500\n  b(k) = mod(k * 37, 101) * 1.0\nend do\nt = -1.0\n!$polaris doall reduction(MAX:T)\ndo i = 1, 500\n  t = max(t, b(i))\nend do\nprint *, t\nend\n";
        let p = parse(src);
        run_validated(&p, &MachineConfig::challenge_8()).unwrap();
    }

    #[test]
    fn validation_lastprivate() {
        let src = "program t\nreal a(50), b(50)\ndo k = 1, 50\n  b(k) = k * 1.0\nend do\n!$polaris doall private(T) lastprivate(T)\ndo i = 1, 50\n  t = b(i)\n  a(i) = t\nend do\nprint *, t\nend\n";
        let p = parse(src);
        let (seq, _) = run_validated(&p, &MachineConfig::challenge_8()).unwrap();
        assert!(seq.output[0].contains("5.000000E1"), "{:?}", seq.output);
    }

    #[test]
    fn speculative_success_and_failure_costs() {
        // parallel access pattern (permutation via coprime stride)
        let ok = "program t\nreal a(128)\ninteger key(128)\ndo k = 1, 128\n  key(k) = mod(k * 77, 128) + 1\nend do\n!$polaris doall speculative(A)\ndo i = 1, 128\n  a(key(i)) = i * 1.0\nend do\nprint *, a(1)\nend\n";
        let p = parse(ok);
        let r = run(&p, &MachineConfig::challenge_8()).unwrap();
        let spec_loop = r.loops.values().find(|s| s.spec_success > 0);
        assert!(spec_loop.is_some(), "{:?}", r.loops);

        // colliding pattern: speculation fails, loop charged sequential+test
        let bad = "program t\nreal a(128)\ninteger key(128)\ndo k = 1, 128\n  key(k) = mod(k, 7) + 1\nend do\n!$polaris doall speculative(A)\ndo i = 1, 128\n  a(key(i)) = a(key(i)) + 1.0\nend do\nprint *, a(1)\nend\n";
        let p2 = parse(bad);
        let r2 = run(&p2, &MachineConfig::challenge_8()).unwrap();
        assert!(r2.loops.values().any(|s| s.spec_fail > 0), "{:?}", r2.loops);
        // failed speculation must cost more than plain serial execution
        let serial = run_serial(&p2).unwrap();
        assert!(r2.cycles > serial.cycles);
        // but values are still correct
        assert_eq!(r2.output, serial.output);
    }

    #[test]
    fn dynamic_scheduling_balances_triangular_loops() {
        // triangular work: static blocks are imbalanced, dynamic wins
        let src = "program t\nreal a(400,400)\n!$polaris doall private(J)\ndo i = 1, 400\n  do j = 1, i\n    a(j, i) = 1.0\n  end do\nend do\nend\n";
        let p = parse(src);
        let static_r = run(&p, &MachineConfig::challenge_8()).unwrap();
        let mut cfg = MachineConfig::challenge_8();
        cfg.schedule = Schedule::Dynamic { chunk: 4 };
        let dyn_r = run(&p, &cfg).unwrap();
        assert!(
            dyn_r.cycles < static_r.cycles,
            "dynamic {} should beat static {}",
            dyn_r.cycles,
            static_r.cycles
        );
    }

    #[test]
    fn codegen_model_changes_cost_only() {
        let src = "program t\nreal a(5000)\ndo i = 1, 5000\n  a(i) = i * 3.0\nend do\nprint *, a(17)\nend\n";
        let p = parse(src);
        let plain = run_serial(&p).unwrap();
        let cfg = MachineConfig::serial().with_codegen(crate::cost::CodegenModel::aggressive());
        let agg = run(&p, &cfg).unwrap();
        assert_eq!(plain.output, agg.output);
        assert!(agg.cycles < plain.cycles, "straight-line bonus expected");
        // conditional body: penalty
        let src2 = "program t\nreal a(5000)\ndo i = 1, 5000\n  if (mod(i, 2) == 0) then\n    a(i) = 1.0\n  else\n    a(i) = 2.0\n  end if\nend do\nprint *, a(17)\nend\n";
        let p2 = parse(src2);
        let plain2 = run_serial(&p2).unwrap();
        let agg2 = run(&p2, &cfg).unwrap();
        assert!(agg2.cycles > plain2.cycles, "conditional penalty expected");
    }

    #[test]
    fn out_of_bounds_is_caught() {
        let p = parse("program t\nreal a(10)\nk = 11\na(k) = 1.0\nend\n");
        assert!(matches!(run_serial(&p), Err(MachineError::OutOfBounds { .. })));
    }

    /// An error ends the run where it is raised, in both engines: the
    /// stores of the iterations before it — and of the failing iteration
    /// before the bad subscript — are in memory, the one after is not.
    #[test]
    fn stores_before_an_out_of_bounds_store_are_in_memory_when_it_is_raised() {
        let src = "program t\ninteger i, j\nreal a(8, 3), b(3)\ndo i = 1, 3\n  b(i) = i * 1.0\n  do j = 1, 6\n    a(j + i * i - 1, i) = j * 1.0\n  end do\n  b(i) = -1.0\nend do\nend\n";
        let failed = |engine: Engine| {
            let mut image = lower_with_cap(&parse(src), None).unwrap();
            let cfg = MachineConfig::serial().with_engine(engine);
            let mut interp = Interp::new(&mut image, &cfg, None).unwrap();
            let err = interp.run_program(&image).unwrap_err();
            let elements = |a: &ArrData| (0..a.len()).map(|i| a.get(i)).collect::<Vec<_>>();
            let (a, b) = (elements(&interp.arrays[0]), elements(&interp.arrays[1]));
            (err, a, b, dump_state(&interp, &image))
        };
        let (vm, tree) = (failed(Engine::Vm), failed(Engine::TreeWalk));
        assert_eq!(vm, tree);
        let (err, a, b, _) = vm;
        assert_eq!(err, MachineError::OutOfBounds { array: "A".into(), index: 9, len: 8 });
        // i = 2 stores a(4..8, 2) in j = 1..5 and fails on a(9, 2) in j = 6.
        let reals = |xs: &[f64]| xs.iter().map(|&x| V::R(x)).collect::<Vec<_>>();
        assert_eq!(a[8..], reals(&[0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]));
        assert_eq!(b, reals(&[-1.0, 2.0, 0.0]));
    }

    /// The simulated multiprocessor runs a concurrent invocation on one
    /// thread, chunk by chunk in iteration order, whatever its processor
    /// count and plan: so simulated configurations can change cycles but
    /// never output bits, and the conformance suites need not walk them
    /// all. A loop that counts its visits (`k = k + 1; ord(k) = i`, a
    /// shared `K` no real backend could run) records that order, as a
    /// DOALL and as a speculation, for every plan shape at p = 2 and 8.
    #[test]
    fn simulated_invocations_visit_iterations_in_ascending_order_for_every_plan() {
        let program = |annotation: &str, trip: usize| {
            parse(&format!(
                "program order\ninteger ord(40), i, k, bad\nk = 0\n{annotation}\n\
                 do i = 1, {trip}\n  k = k + 1\n  ord(k) = i\nend do\n\
                 bad = 0\ndo i = 1, k\n  if (ord(i) .ne. i) then\n    bad = bad + 1\n  end if\nend do\n\
                 print *, k, bad\nend\n"
            ))
        };
        let forced = || {
            Arc::new(crate::AdaptiveController::with_forced_cycle(vec![Some(Schedule::Stealing { chunk: 2 })]))
        };
        for procs in [2, 8] {
            let base = MachineConfig::challenge_8().with_procs(procs);
            let plans = [
                Schedule::Static,
                Schedule::Stealing { chunk: 1 },
                Schedule::Stealing { chunk: 3 },
                Schedule::Dynamic { chunk: 3 },
            ]
            .map(|schedule| MachineConfig { schedule, ..base.clone() });
            // Past the block plan's `procs` chunks, below one chunk per
            // processor, and none at all.
            for trip in [40, procs - 1, 0] {
                for annotation in ["!$polaris doall", "!$polaris doall speculative(ORD)"] {
                    let p = program(annotation, trip);
                    let serial = run_serial(&p).unwrap();
                    assert_eq!(serial.output, [format!("{trip} 0")]);
                    for cfg in plans.iter().cloned().chain([base.clone().with_adaptive(forced())]) {
                        for engine in [Engine::Vm, Engine::TreeWalk] {
                            let cfg = cfg.clone().with_engine(engine);
                            let what = format!("{annotation}, trip {trip}: {cfg:?}");
                            let rec = polaris_obs::Recorder::monotonic();
                            let r = run_recorded(&p, &cfg, &rec).unwrap_or_else(|e| panic!("{what}: {e}"));
                            assert_eq!(r.output, serial.output, "{what}");
                            let counters = rec.counters();
                            let concurrent = ["exec.loops.parallel", "exec.loops.speculative"]
                                .map(|c| counters.get(c).copied().unwrap_or(0));
                            assert_eq!(concurrent.iter().sum::<u64>(), 1, "{what}: not dispatched concurrently");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn integer_semantics() {
        let p = parse(
            "program t\ni = 7\nj = 2\nprint *, i/j, mod(i,j), i**3, (-2)**3\nend\n",
        );
        let r = run_serial(&p).unwrap();
        assert_eq!(r.output[0], "3 1 343 -8");
    }
}

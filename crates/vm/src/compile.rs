//! The fused-loop compiler: the interpreter's loop table.
//!
//! [`compile`] finds every `while` loop whose condition and body are pure
//! local stack code — `while (i < passes) { zr2 = zr*zr - zi*zi + cr; … }`
//! — and lowers it once to flat register code that runs whole iterations
//! per dispatch. A fused loop whose ops stay inside `{+, -, *, compare,
//! ==, !=, unary -, !}` over int, float and bool constants is also
//! *typed*: it runs on an unboxed register file with no per-iteration
//! checks whenever every slot it uses holds an int, float or bool on
//! entry.
//!
//! The compiler reads nothing but the bytecode: every license it acts on
//! is derived from the code it compiles, so no outside table (effect
//! summaries included) can make it wrong.
//!
//! # Engine contract
//!
//! [`run`] is the interpreter's dispatch loop ([`crate::interp::run`])
//! with one addition: after a backward `Jump` it enters the fused loop
//! headed at the jump target, if there is one. It is observationally
//! identical to the interpreter: same yields, same final frames (pc,
//! locals, operand stack), same node-var effects, same `ops` charge, same
//! errors at the same positions — at *any* fuel. `tests/diff_props.rs`
//! checks this differentially on generated programs. A fused loop is
//! exact because it is entered only at its head, runs only whole
//! iterations that fit in the remaining fuel, and on a fault publishes
//! the state of its completed iterations at the loop head and turns
//! fusion off: the interpreter then replays the faulting iteration op by
//! op and raises the fault at its own position. The first iteration of
//! every loop entry runs unfused, since only its backedge enters the loop.
//!
//! # Precondition: verification
//!
//! The compiler assumes structurally sane code — in-range constant pool
//! and local-slot indices, jump targets inside the function — which is
//! exactly what `msgr-analyze::verify` establishes before a program is
//! admitted to the code registry. Compiling unverified code is safe (a
//! loop that reads an out-of-range slot or constant is not fused, and
//! the interpreter raises the error) but pointless; the daemon registry
//! therefore compiles right after verification and quarantines on
//! failure.

use crate::binop::{self, Arith, Cmp};
use crate::bytecode::{Op, Program};
use crate::error::VmError;
use crate::interp::{self, Env, Yield};
use crate::state::{Frame, MessengerState};
use crate::value::Value;

/// A program's fused loops, per function and indexed by loop-head pc;
/// build with [`compile`], execute with [`run`]. Shareable across daemon
/// threads (`Arc`): it holds no mutable state.
#[derive(Debug)]
pub struct CompiledProgram {
    funcs: Vec<Vec<Option<LoopStep>>>,
}

impl CompiledProgram {
    fn loops(&self) -> impl Iterator<Item = &LoopStep> {
        self.funcs.iter().flatten().flatten()
    }

    /// Number of superinstructions across all functions: the fused
    /// `while` loops.
    pub fn superinstructions(&self) -> u64 {
        self.loops().count() as u64
    }

    /// Number of bytecode ops scanned for loops (== the program's total
    /// instruction count).
    pub fn steps(&self) -> u64 {
        self.funcs.iter().map(|f| f.len() as u64).sum()
    }

    /// Number of compiled functions.
    pub fn func_count(&self) -> usize {
        self.funcs.len()
    }

    /// Number of fused loops licensed for the unboxed typed fast path.
    pub fn typed_loops(&self) -> u64 {
        self.loops().filter(|lp| lp.typed).count() as u64
    }
}

/// Build the loop table of a (verified) program.
///
/// # Errors
///
/// Structural limits only (a function body too large to index by `u32`);
/// verified programs always compile.
pub fn compile(p: &Program) -> Result<CompiledProgram, String> {
    compile_full(p, false)
}

// Only caller: `benchmark/src/probes.rs`. The compiler reads no summaries.
#[doc(hidden)]
pub fn compile_with_summaries<S>(p: &Program, _: Option<&S>) -> Result<CompiledProgram, String> {
    compile(p)
}

/// Test hook: compile with a deliberately miscompiled superinstruction
/// (fused arithmetic evaluates its operands swapped). The differential
/// suite uses this to prove it would catch a real miscompile.
///
/// # Errors
///
/// As for [`compile`].
#[doc(hidden)]
pub fn compile_miscompiled(p: &Program) -> Result<CompiledProgram, String> {
    compile_full(p, true)
}

fn compile_full(p: &Program, mutate: bool) -> Result<CompiledProgram, String> {
    let funcs = p.funcs.iter().map(|f| {
        if f.code.len() >= u32::MAX as usize {
            return Err(format!("function `{}` too large to compile", f.name));
        }
        Ok((0..f.code.len())
            .map(|pc| build_loop(p, &f.code, f.n_slots as usize, pc as u32, mutate))
            .collect())
    });
    Ok(CompiledProgram { funcs: funcs.collect::<Result<_, _>>()? })
}

/// Execute `m` until it yields, returns, or errors: [`crate::interp::run`]
/// entering `cp`'s fused loops at their backedges, with identical
/// observable behavior.
///
/// # Errors
///
/// Any [`VmError`], exactly as the interpreter would raise it.
pub fn run(
    cp: &CompiledProgram,
    program: &Program,
    m: &mut MessengerState,
    env: &mut dyn Env,
    fuel: u64,
) -> Result<Yield, VmError> {
    interp::segment::<true>(Some(cp), program, m, env, fuel)
}

/// Run the fused loop headed at `frame.pc`, if there is one and a whole
/// iteration fits in the fuel left; the interpreter calls this right
/// after a backward `Jump`. Returns `false` when the loop deopted: a
/// fault is pending at the loop head, and the caller must run the rest of
/// the segment unfused so the fault fires at the interpreter's position.
pub(crate) fn enter_loop(
    cp: &CompiledProgram,
    frame: &mut Frame,
    fuel: u64,
    ops: &mut u64,
) -> bool {
    let Some(lp) = cp
        .funcs
        .get(frame.func.0 as usize)
        .and_then(|loops| loops.get(frame.pc as usize))
        .and_then(Option::as_ref)
    else {
        return true;
    };
    if *ops + u64::from(lp.per_iter) > fuel {
        return true;
    }
    // Typed loops try the unboxed register file first; anything it cannot
    // represent falls through to the generic boxed executor.
    lp.typed && run_loop_typed(lp, frame, fuel, ops).is_some() || run_loop(lp, frame, fuel, ops)
}

// ---------------------------------------------------------------------
// Fused counted loops: whole `while` loops lowered to flat register
// code. The strongest superinstruction — the mandel/matmul inner loops
// run here, with locals promoted to a register file for the loop's
// entire residence and fuel charged per completed iteration.
// ---------------------------------------------------------------------

/// Flat three-address code over the loop's register file.
#[derive(Debug)]
enum RegOp {
    Bin { op: Arith, dst: usize, a: usize, b: usize },
    Cmp { op: Cmp, dst: usize, a: usize, b: usize },
    Eq { ne: bool, dst: usize, a: usize, b: usize },
    Neg { dst: usize, a: usize },
    Not { dst: usize, a: usize },
    Mov { dst: usize, src: usize },
}

/// A fused `while` loop:
///
/// ```text
/// head: <pure cond ops> JumpIfFalse(exit)
///       <pure local body ops> Jump(head)
/// exit:
/// ```
///
/// Registers `0..n_slots` mirror the frame's locals (loaded once at
/// entry, written back once at exit/fault), then come preloaded
/// constants, then SSA temporaries. Each completed iteration charges
/// `per_iter` ops; the final false condition charges `cond_need`.
/// A fault re-runs the completed iterations from the entry registers and
/// deopts with the state exactly at the loop head, so the interpreter's
/// replay of the faulting iteration raises it at its own position.
#[derive(Debug)]
struct LoopStep {
    /// Ops for one full iteration (cond + branch + body + backedge).
    per_iter: u32,
    /// Ops for the exiting (false) condition evaluation.
    cond_need: u32,
    /// pc after the loop (`JumpIfFalse` target).
    exit: u32,
    n_regs: usize,
    /// Constant registers, materialized once at loop entry.
    consts: Vec<(usize, Value)>,
    cond_ops: Vec<RegOp>,
    /// Register holding the condition after `cond_ops`.
    cond_reg: usize,
    body_ops: Vec<RegOp>,
    /// Local slots the body stores to (write-back + fault snapshot set).
    writeback: Vec<usize>,
    /// Typed license ([`loop_regops_typed`]): every register op and
    /// constant is total over `{int, float, bool}`, so iterations may run
    /// on the unboxed [`TV`] register file with no per-iteration deopt
    /// checks whenever the used slots hold such values on entry.
    typed: bool,
    /// One flag per local slot: whether the loop's code loads or stores
    /// it. The typed executor only needs *these* to be representable;
    /// other slots holding strings/arrays don't block the fast path.
    used_slots: Vec<bool>,
}

const MAX_LOOP_SLOTS: usize = 32;
const MAX_LOOP_REGS: usize = 160;
const MAX_LOOP_STORES: usize = 16;

/// Symbolic executor lowering a straight-line section to [`RegOp`]s.
struct RegBuilder {
    n_slots: usize,
    next_reg: usize,
    consts: Vec<(usize, Value)>,
    vstack: Vec<usize>,
    len: u32,
}

impl RegBuilder {
    fn alloc(&mut self) -> Option<usize> {
        if self.next_reg >= MAX_LOOP_REGS {
            return None;
        }
        self.next_reg += 1;
        Some(self.next_reg - 1)
    }

    /// Lower ops from `at` until a non-fusable op; returns the pc of
    /// that op. `stores` is `None` for the condition section (where
    /// stores end the section) and collects stored slots for the body.
    fn section(
        &mut self,
        p: &Program,
        code: &[Op],
        at: usize,
        mutate: bool,
        out: &mut Vec<RegOp>,
        mut stores: Option<&mut Vec<usize>>,
    ) -> Option<usize> {
        let mut j = at;
        while j < code.len() {
            match code[j] {
                Op::Const(i) => {
                    let v = p.consts.get(i as usize)?.clone();
                    let r = self.alloc()?;
                    self.consts.push((r, v));
                    self.vstack.push(r);
                }
                Op::LoadLocal(i) if (i as usize) < self.n_slots => {
                    self.vstack.push(i as usize);
                }
                Op::Dup => {
                    let &top = self.vstack.last()?;
                    self.vstack.push(top);
                }
                Op::StoreLocal(i) if (i as usize) < self.n_slots => {
                    let slots = stores.as_deref_mut()?;
                    if slots.len() >= MAX_LOOP_STORES {
                        return Some(j);
                    }
                    let src = self.vstack.pop()?;
                    let slot = i as usize;
                    // Pending stack values that alias this slot's
                    // register still mean the *old* value; preserve it
                    // in a temp before overwriting.
                    if self.vstack.contains(&slot) {
                        let save = self.alloc()?;
                        out.push(RegOp::Mov { dst: save, src: slot });
                        for v in &mut self.vstack {
                            if *v == slot {
                                *v = save;
                            }
                        }
                    }
                    out.push(RegOp::Mov { dst: slot, src });
                    slots.push(slot);
                }
                Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Mod => {
                    let op = Arith::of(code[j])?;
                    let b = self.vstack.pop()?;
                    let a = self.vstack.pop()?;
                    let dst = self.alloc()?;
                    let (a, b) = if mutate { (b, a) } else { (a, b) };
                    out.push(RegOp::Bin { op, dst, a, b });
                    self.vstack.push(dst);
                }
                Op::Lt | Op::Le | Op::Gt | Op::Ge => {
                    let op = Cmp::of(code[j])?;
                    let b = self.vstack.pop()?;
                    let a = self.vstack.pop()?;
                    let dst = self.alloc()?;
                    out.push(RegOp::Cmp { op, dst, a, b });
                    self.vstack.push(dst);
                }
                Op::Eq | Op::Ne => {
                    let b = self.vstack.pop()?;
                    let a = self.vstack.pop()?;
                    let dst = self.alloc()?;
                    out.push(RegOp::Eq { ne: matches!(code[j], Op::Ne), dst, a, b });
                    self.vstack.push(dst);
                }
                Op::Neg | Op::Not => {
                    let a = self.vstack.pop()?;
                    let dst = self.alloc()?;
                    out.push(if code[j] == Op::Neg {
                        RegOp::Neg { dst, a }
                    } else {
                        RegOp::Not { dst, a }
                    });
                    self.vstack.push(dst);
                }
                Op::Pop => {
                    // The value was already computed eagerly by earlier
                    // RegOps (and any fault already surfaced), so the
                    // discard itself is free.
                    self.vstack.pop()?;
                }
                _ => return Some(j),
            }
            self.len += 1;
            j += 1;
        }
        Some(j)
    }
}

/// Recognize and lower a fused `while` loop headed at `head`.
fn build_loop(
    p: &Program,
    code: &[Op],
    n_slots: usize,
    head: u32,
    mutate: bool,
) -> Option<LoopStep> {
    if n_slots > MAX_LOOP_SLOTS {
        return None;
    }
    let mut b =
        RegBuilder { n_slots, next_reg: n_slots, consts: Vec::new(), vstack: Vec::new(), len: 0 };
    // Condition: pure, store-free, ending at JumpIfFalse with exactly
    // the condition value produced.
    let mut cond_ops = Vec::new();
    let stop = b.section(p, code, head as usize, mutate, &mut cond_ops, None)?;
    let Some(Op::JumpIfFalse(off)) = code.get(stop) else {
        return None;
    };
    let cond_reg = b.vstack.pop()?;
    if !b.vstack.is_empty() || b.len == 0 {
        return None;
    }
    b.len += 1;
    let cond_need = b.len;
    let exit = binop::jump(stop as u32 + 1, *off);
    // Body: pure local code ending with the backedge to `head`, with
    // nothing left on the (virtual) operand stack.
    let mut body_ops = Vec::new();
    let mut stored = Vec::new();
    let stop2 = b.section(p, code, stop + 1, mutate, &mut body_ops, Some(&mut stored))?;
    let Some(Op::Jump(back)) = code.get(stop2) else {
        return None;
    };
    if binop::jump(stop2 as u32 + 1, *back) != head || !b.vstack.is_empty() {
        return None;
    }
    b.len += 1;
    let mut writeback = stored;
    writeback.sort_unstable();
    writeback.dedup();
    // The slots the loop's code names: the only ones the typed executor
    // needs representable (`section` admitted each index).
    let mut used_slots = vec![false; n_slots];
    for op in &code[head as usize..stop2] {
        if let Op::LoadLocal(i) | Op::StoreLocal(i) = *op {
            used_slots[i as usize] = true;
        }
    }
    let mut lp = LoopStep {
        per_iter: b.len,
        cond_need,
        exit,
        n_regs: b.next_reg,
        consts: b.consts,
        cond_ops,
        cond_reg,
        body_ops,
        writeback,
        typed: false,
        used_slots,
    };
    lp.typed = loop_regops_typed(&lp);
    Some(lp)
}

/// Execute one flat-code section over the register file, through the
/// same `binop` fast paths and reference fallbacks as the operand stack.
fn exec_regops(ops: &[RegOp], regs: &mut [Value]) -> Result<(), VmError> {
    for r in ops {
        match *r {
            RegOp::Mov { dst, src } => regs[dst] = regs[src].clone(),
            RegOp::Bin { op, dst, a, b } => {
                regs[dst] = match op.fast(&regs[a], &regs[b]) {
                    Some(v) => v,
                    None => binop::arith(op, regs[a].clone(), regs[b].clone())?,
                };
            }
            RegOp::Cmp { op, dst, a, b } => {
                regs[dst] = match op.fast(&regs[a], &regs[b]) {
                    Some(r) => Value::Bool(r),
                    None => binop::compare(op, &regs[a], &regs[b])?,
                };
            }
            RegOp::Eq { ne, dst, a, b } => {
                let eq = regs[a].loose_eq(&regs[b]);
                regs[dst] = Value::Bool(if ne { !eq } else { eq });
            }
            RegOp::Neg { dst, a } => regs[dst] = binop::neg(regs[a].clone())?,
            RegOp::Not { dst, a } => regs[dst] = Value::Bool(!regs[a].is_truthy()),
        }
    }
    Ok(())
}

/// Run fused iterations until the condition goes false, the fuel budget
/// allows no further full iteration, or a fault deopts (`false`: the
/// fault is pending at the loop head, to be replayed unfused). The caller
/// guarantees at least one full iteration fits in the remaining fuel.
fn run_loop(lp: &LoopStep, fr: &mut Frame, fuel: u64, ops: &mut u64) -> bool {
    if fr.locals.len() != lp.used_slots.len() {
        return true; // corrupt frame: let the interpreter raise the error
    }
    let per = u64::from(lp.per_iter);
    let budget = (fuel - *ops) / per;
    let mut regs: Vec<Value> = Vec::with_capacity(lp.n_regs);
    regs.extend(fr.locals.iter().cloned());
    regs.resize(lp.n_regs, Value::Null);
    for (r, v) in &lp.consts {
        regs[*r] = v.clone();
    }
    // Fault recovery is replay-based: faults are rare (they deopt
    // permanently), so instead of snapshotting stores every iteration
    // we keep the entry registers and, on a fault at iteration `done`,
    // deterministically re-execute the `done` completed iterations —
    // they are pure register code and already succeeded once.
    let entry = regs.clone();
    let mut done: u64 = 0;
    let write_back = |fr: &mut Frame, regs: &mut [Value]| {
        for &s in &lp.writeback {
            fr.locals[s] = std::mem::replace(&mut regs[s], Value::Null);
        }
    };
    let deopt = |fr: &mut Frame, ops: &mut u64, done: u64| {
        let mut regs = entry.clone();
        for _ in 0..done {
            let _ = exec_regops(&lp.cond_ops, &mut regs);
            let _ = exec_regops(&lp.body_ops, &mut regs);
        }
        write_back(fr, &mut regs);
        *ops += done * per;
        false
    };
    while done < budget {
        if exec_regops(&lp.cond_ops, &mut regs).is_err() {
            return deopt(fr, ops, done);
        }
        if !regs[lp.cond_reg].is_truthy() {
            write_back(fr, &mut regs);
            *ops += done * per + u64::from(lp.cond_need);
            fr.pc = lp.exit;
            return true;
        }
        if exec_regops(&lp.body_ops, &mut regs).is_err() {
            return deopt(fr, ops, done);
        }
        done += 1;
    }
    // Fuel bound: the next full iteration no longer fits. Publish and
    // let the interpreter walk into the fuel wall at the exact op.
    write_back(fr, &mut regs);
    *ops += done * per;
    true
}

// ---------------------------------------------------------------------
// Typed loops: the unboxed fast path, licensed from the loop's own code.
//
// Three local facts make it exact. `build_loop` admits only pure local
// stack ops (no calls, no node or `$net` access, no inner jumps);
// `loop_regops_typed` narrows them to ops and constants that are total
// over int, float and bool; and `run_loop_typed` checks at entry that
// every slot the loop uses holds such a value, handing anything else to
// the generic executor. On those kinds every `TV` op equals its
// `binop` twin, so no fact from outside the bytecode is needed.
// ---------------------------------------------------------------------

/// Whether a fused loop's register code stays inside the op set the
/// typed executor implements totally: Div/Mod can fault (and produce
/// `Float` from `Int/Int` only sometimes), so they stay generic.
fn loop_regops_typed(lp: &LoopStep) -> bool {
    let total = |r: &RegOp| !matches!(r, RegOp::Bin { op: Arith::Div | Arith::Mod, .. });
    lp.cond_ops.iter().chain(&lp.body_ops).all(total)
        && lp.consts.iter().all(|(_, v)| tv_of(v).is_some())
}

/// Unboxed typed value for the typed-loop fast path. Closed
/// and total under `{Add, Sub, Mul, Lt..Ge, Eq/Ne, Neg, Not, Mov}` with
/// semantics identical to [`binop`] on `Int`/`Float`/`Bool` inputs — no
/// faults, hence no deopt machinery.
#[derive(Copy, Clone)]
enum TV {
    I(i64),
    F(f64),
    B(bool),
}

fn tv_of(v: &Value) -> Option<TV> {
    match v {
        Value::Int(x) => Some(TV::I(*x)),
        Value::Float(x) => Some(TV::F(*x)),
        Value::Bool(b) => Some(TV::B(*b)),
        _ => None,
    }
}

fn tv_value(t: TV) -> Value {
    match t {
        TV::I(x) => Value::Int(x),
        TV::F(x) => Value::Float(x),
        TV::B(b) => Value::Bool(b),
    }
}

/// Numeric widening, mirroring `Value::as_float` for `Int`/`Float`/`Bool`.
fn tv_f64(t: TV) -> f64 {
    match t {
        TV::I(x) => x as f64,
        TV::F(x) => x,
        TV::B(b) => i64::from(b) as f64,
    }
}

/// Mirrors `Value::is_truthy` (`-0.0` falsy, NaN truthy).
fn tv_truthy(t: TV) -> bool {
    match t {
        TV::I(x) => x != 0,
        TV::F(x) => x != 0.0,
        TV::B(b) => b,
    }
}

/// The typed twin of [`exec_regops`], on `binop`'s unboxed operators.
/// `None` only for an int zero divisor, which [`loop_regops_typed`]
/// keeps out of typed loops.
fn exec_regops_tv(ops: &[RegOp], regs: &mut [TV]) -> Option<()> {
    for r in ops {
        match *r {
            RegOp::Mov { dst, src } => regs[dst] = regs[src],
            RegOp::Bin { op, dst, a, b } => {
                regs[dst] = match (regs[a], regs[b]) {
                    (TV::I(x), TV::I(y)) => TV::I(op.int(x, y)?),
                    (x, y) => TV::F(op.float(tv_f64(x), tv_f64(y))),
                };
            }
            // `binop::compare` widens everything numeric to f64,
            // Int/Int included.
            RegOp::Cmp { op, dst, a, b } => {
                regs[dst] = TV::B(op.floats(tv_f64(regs[a]), tv_f64(regs[b])));
            }
            RegOp::Eq { ne, dst, a, b } => {
                // `Value::loose_eq`: Int/Float cross-compares widen, same
                // variants use derived equality (NaN != NaN), and
                // Bool-vs-numeric is always unequal.
                let eq = match (regs[a], regs[b]) {
                    (TV::I(x), TV::I(y)) => x == y,
                    (TV::F(x), TV::F(y)) => x == y,
                    (TV::B(x), TV::B(y)) => x == y,
                    (TV::I(x), TV::F(y)) | (TV::F(y), TV::I(x)) => x as f64 == y,
                    _ => false,
                };
                regs[dst] = TV::B(if ne { !eq } else { eq });
            }
            RegOp::Neg { dst, a } => {
                regs[dst] = match regs[a] {
                    TV::I(x) => TV::I(x.wrapping_neg()),
                    t => TV::F(-tv_f64(t)),
                };
            }
            RegOp::Not { dst, a } => regs[dst] = TV::B(!tv_truthy(regs[a])),
        }
    }
    Some(())
}

/// Run a typed loop on the unboxed register file. Returns
/// `None` (having touched nothing) when a *used* slot or constant holds
/// a value `TV` can't represent — the generic executor handles those.
/// Fuel accounting is identical to [`run_loop`]; there is no deopt path
/// because every typed op is total (were one not, the loop would return
/// `None` before writing back, and the generic executor would run it).
fn run_loop_typed(lp: &LoopStep, fr: &mut Frame, fuel: u64, ops: &mut u64) -> Option<()> {
    if fr.locals.len() != lp.used_slots.len() {
        return None;
    }
    let mut regs: Vec<TV> = Vec::with_capacity(lp.n_regs);
    for (s, v) in fr.locals.iter().enumerate() {
        regs.push(match tv_of(v) {
            Some(t) => t,
            // A slot the loop never touches may hold anything; it only
            // needs a placeholder register.
            None if !lp.used_slots.get(s).copied().unwrap_or(true) => TV::I(0),
            None => return None,
        });
    }
    regs.resize(lp.n_regs, TV::I(0));
    for (r, v) in &lp.consts {
        *regs.get_mut(*r)? = tv_of(v)?;
    }
    let per = u64::from(lp.per_iter);
    let budget = (fuel - *ops) / per;
    let write_back = |fr: &mut Frame, regs: &[TV]| {
        for &s in &lp.writeback {
            fr.locals[s] = tv_value(regs[s]);
        }
    };
    let mut done: u64 = 0;
    while done < budget {
        exec_regops_tv(&lp.cond_ops, &mut regs)?;
        if !tv_truthy(regs[lp.cond_reg]) {
            write_back(fr, &regs);
            *ops += done * per + u64::from(lp.cond_need);
            fr.pc = lp.exit;
            return Some(());
        }
        exec_regops_tv(&lp.body_ops, &mut regs)?;
        done += 1;
    }
    write_back(fr, &regs);
    *ops += done * per;
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{Builder, Dir, FuncId, HopSpec, LinkPat, NodePat, Op};
    use crate::interp::{self, EvalHop, EvalLink, MapEnv, NullEnv};
    use crate::state::MessengerId;

    fn launch(p: &Program) -> MessengerState {
        MessengerState::launch(p, MessengerId(1), &[]).unwrap()
    }

    /// Run the same program under both engines at the same fuel and
    /// require identical outcomes and identical messenger states.
    fn both(p: &Program, fuel: u64) -> Result<Yield, VmError> {
        let cp = compile(p).expect("compiles");
        let mut mi = launch(p);
        let mut mc = launch(p);
        let ri = interp::run(p, &mut mi, &mut NullEnv, fuel);
        let rc = run(&cp, p, &mut mc, &mut NullEnv, fuel);
        assert_eq!(ri, rc, "yields/errors diverge");
        assert_eq!(mi.frames, mc.frames, "frames diverge");
        rc
    }

    #[test]
    fn arithmetic_loop_matches_interpreter() {
        // while (i < 10) { acc = acc + i * 2; i = i + 1; } return acc
        let mut b = Builder::new();
        let c0 = b.constant(Value::Int(0));
        let c1 = b.constant(Value::Int(1));
        let c2 = b.constant(Value::Int(2));
        let c10 = b.constant(Value::Int(10));
        let code = vec![
            Op::Const(c0),
            Op::StoreLocal(0), // i
            Op::Const(c0),
            Op::StoreLocal(1), // acc
            // loop head (pc 4)
            Op::LoadLocal(0),
            Op::Const(c10),
            Op::Lt,
            Op::JumpIfFalse(11),
            Op::LoadLocal(1),
            Op::LoadLocal(0),
            Op::Const(c2),
            Op::Mul,
            Op::Add,
            Op::StoreLocal(1),
            Op::LoadLocal(0),
            Op::Const(c1),
            Op::Add,
            Op::StoreLocal(0),
            Op::Jump(-15),
            // exit (pc 19)
            Op::LoadLocal(1),
            Op::Ret,
        ];
        let f = b.function("main", 0, 2, code);
        let p = b.finish(f);
        assert_eq!(both(&p, 10_000).unwrap(), Yield::Terminated(Value::Int(90)));
        let cp = compile(&p).unwrap();
        assert_eq!(cp.superinstructions(), 1, "the whole while loop must fuse");
    }

    #[test]
    fn fault_inside_fused_loop_deopts_to_exact_interpreter_state() {
        // while (i < 8) { acc = acc + 6 / (3 - i); i = i + 1 }
        // The divisor hits zero on the fourth iteration: the fused loop
        // must roll back that iteration and replay the fault with the
        // interpreter's exact frame and ops charge.
        let mut b = Builder::new();
        let c0 = b.constant(Value::Int(0));
        let c1 = b.constant(Value::Int(1));
        let c3 = b.constant(Value::Int(3));
        let c6 = b.constant(Value::Int(6));
        let c8 = b.constant(Value::Int(8));
        let code = vec![
            Op::Const(c0),
            Op::StoreLocal(0), // i
            Op::Const(c0),
            Op::StoreLocal(1), // acc
            // loop head (pc 4)
            Op::LoadLocal(0),
            Op::Const(c8),
            Op::Lt,
            Op::JumpIfFalse(13),
            Op::LoadLocal(1),
            Op::Const(c6),
            Op::Const(c3),
            Op::LoadLocal(0),
            Op::Sub,
            Op::Div,
            Op::Add,
            Op::StoreLocal(1),
            Op::LoadLocal(0),
            Op::Const(c1),
            Op::Add,
            Op::StoreLocal(0),
            Op::Jump(-17),
            // exit (pc 21)
            Op::LoadLocal(1),
            Op::Ret,
        ];
        let f = b.function("main", 0, 2, code);
        let p = b.finish(f);
        let cp = compile(&p).unwrap();
        assert_eq!(cp.superinstructions(), 1, "the faulting loop must still fuse");
        assert_eq!(cp.typed_loops(), 0, "division can fault: no typed license");
        let err = both(&p, 10_000).unwrap_err();
        assert!(matches!(err, VmError::DivisionByZero));
        // And with the fault patched out of range, both agree on the sum.
        for fuel in 0..80 {
            let mut mi = launch(&p);
            let mut mc = launch(&p);
            let mut ei = MapEnv::new();
            let mut ec = MapEnv::new();
            let ri = interp::run(&p, &mut mi, &mut ei, fuel);
            let rc = run(&cp, &p, &mut mc, &mut ec, fuel);
            assert_eq!(ri, rc, "fuel={fuel}");
            assert_eq!(mi.frames, mc.frames, "fuel={fuel}");
            assert_eq!(ei.ops, ec.ops, "fuel={fuel}: ops charge diverges");
        }
    }

    #[test]
    fn every_fuel_level_is_bit_exact() {
        // The same loop, cut off at every possible fuel: state after
        // FuelExhausted must match the interpreter op for op.
        let mut b = Builder::new();
        let c1 = b.constant(Value::Int(1));
        let c5 = b.constant(Value::Int(5));
        let code = vec![
            Op::Const(c1),
            Op::StoreLocal(0),
            Op::LoadLocal(0),
            Op::Const(c5),
            Op::Lt,
            Op::JumpIfFalse(5),
            Op::LoadLocal(0),
            Op::Const(c1),
            Op::Add,
            Op::StoreLocal(0),
            Op::Jump(-9),
            Op::LoadLocal(0),
            Op::Ret,
        ];
        let f = b.function("main", 0, 1, code);
        let p = b.finish(f);
        let cp = compile(&p).unwrap();
        for fuel in 0..40 {
            let mut mi = launch(&p);
            let mut mc = launch(&p);
            let mut ei = MapEnv::new();
            let mut ec = MapEnv::new();
            let ri = interp::run(&p, &mut mi, &mut ei, fuel);
            let rc = run(&cp, &p, &mut mc, &mut ec, fuel);
            assert_eq!(ri, rc, "fuel={fuel}");
            assert_eq!(mi.frames, mc.frames, "fuel={fuel}");
            assert_eq!(ei.ops, ec.ops, "fuel={fuel}: ops charge diverges");
        }
    }

    #[test]
    fn hop_resumes_at_the_next_pc() {
        let mut b = Builder::new();
        let ring = b.constant(Value::str("ring"));
        let hop = b.hop_spec(HopSpec { ln: NodePat::Wild, ll: LinkPat::Expr, ldir: Dir::Forward });
        let code = vec![Op::Const(ring), Op::Hop(hop), Op::Halt];
        let f = b.function("main", 0, 1, code);
        let p = b.finish(f);
        let cp = compile(&p).unwrap();
        let mut m = launch(&p);
        let y = run(&cp, &p, &mut m, &mut NullEnv, 100).unwrap();
        assert_eq!(
            y,
            Yield::Hop(EvalHop {
                ln: None,
                ll: EvalLink::Named(Value::str("ring")),
                ldir: Dir::Forward
            })
        );
        assert_eq!(m.frames.last().unwrap().pc, 2, "resume pc is past the hop");
        // Resuming the parked/migrated state runs the tail.
        let y = run(&cp, &p, &mut m, &mut NullEnv, 100).unwrap();
        assert_eq!(y, Yield::Terminated(Value::Null));
    }

    #[test]
    fn division_by_zero_leaves_the_interpreter_state() {
        let mut b = Builder::new();
        let c1 = b.constant(Value::Int(1));
        let c0 = b.constant(Value::Int(0));
        let code = vec![
            Op::Const(c1),
            Op::Const(c0),
            Op::Div,
            Op::StoreLocal(0),
            Op::LoadLocal(0),
            Op::Ret,
        ];
        let f = b.function("main", 0, 1, code);
        let p = b.finish(f);
        let err = both(&p, 1_000).unwrap_err();
        assert!(matches!(err, VmError::DivisionByZero));
    }

    #[test]
    fn a_faulting_operator_consumes_both_operands_on_both_engines() {
        // 7, then `1 / 0`, `1 % 0` or `"s" < 1`: both engines fault at
        // the operator with only the 7 left on the stack.
        for (rhs, op, want) in [
            (Value::Int(0), Op::Div, VmError::DivisionByZero),
            (Value::Int(0), Op::Mod, VmError::DivisionByZero),
            (Value::str("s"), Op::Lt, VmError::Type { expected: "float", got: "string" }),
        ] {
            let mut b = Builder::new();
            let c7 = b.constant(Value::Int(7));
            let c1 = b.constant(Value::Int(1));
            let cr = b.constant(rhs);
            let (lhs, rhs) = if matches!(op, Op::Lt) { (cr, c1) } else { (c1, cr) };
            let code = vec![Op::Const(c7), Op::Const(lhs), Op::Const(rhs), op, Op::Ret];
            let f = b.function("main", 0, 0, code);
            let p = b.finish(f);
            let cp = compile(&p).unwrap();
            let mut mi = launch(&p);
            let mut mc = launch(&p);
            assert_eq!(interp::run(&p, &mut mi, &mut NullEnv, 100).unwrap_err(), want);
            assert_eq!(run(&cp, &p, &mut mc, &mut NullEnv, 100).unwrap_err(), want);
            for m in [&mi, &mc] {
                assert_eq!(m.frames[0].stack, vec![Value::Int(7)], "{op:?}");
                assert_eq!(m.frames[0].pc, 4, "{op:?}");
            }
        }
    }

    /// `while (i < n) { x = 10 - 3; i = i + 1 } return x`.
    fn swap_sensitive_loop(n: i64) -> Program {
        let mut b = Builder::new();
        let c1 = b.constant(Value::Int(1));
        let cn = b.constant(Value::Int(n));
        let c10 = b.constant(Value::Int(10));
        let c3 = b.constant(Value::Int(3));
        let code = vec![
            Op::LoadLocal(0),
            Op::Const(cn),
            Op::Lt,
            Op::JumpIfFalse(9),
            Op::Const(c10),
            Op::Const(c3),
            Op::Sub,
            Op::StoreLocal(1),
            Op::LoadLocal(0),
            Op::Const(c1),
            Op::Add,
            Op::StoreLocal(0),
            Op::Jump(-13),
            Op::LoadLocal(1),
            Op::Ret,
        ];
        let f = b.function("main", 0, 2, code);
        b.finish(f)
    }

    #[test]
    fn miscompiled_superinstruction_is_observable() {
        // Two iterations: the first runs unfused, its backedge enters the
        // fused loop with swapped operands, and the result must NOT be
        // the interpreter's 7 — this is what diff_props' mutation check
        // relies on.
        let p = swap_sensitive_loop(2);
        let bad = compile_miscompiled(&p).unwrap();
        let mut m = launch(&p);
        let y = run(&bad, &p, &mut m, &mut NullEnv, 100).unwrap();
        assert_eq!(y, Yield::Terminated(Value::Int(-7)), "mutation must flip the result");
    }

    #[test]
    fn a_loop_is_entered_only_at_its_backedge() {
        // One iteration never takes the backedge into the fused loop, so
        // even the miscompiled table returns the interpreter's 7.
        let p = swap_sensitive_loop(1);
        let bad = compile_miscompiled(&p).unwrap();
        assert_eq!(bad.superinstructions(), 1);
        let mut m = launch(&p);
        let y = run(&bad, &p, &mut m, &mut NullEnv, 100).unwrap();
        assert_eq!(y, Yield::Terminated(Value::Int(7)), "the first iteration runs unfused");
    }

    #[test]
    fn a_decoded_frame_past_the_function_table_is_corrupt() {
        // The wire codec cannot know the program, so a frame may name a
        // function the program lacks: both engines refuse it, neither
        // panics.
        let p = swap_sensitive_loop(1);
        let cp = compile(&p).unwrap();
        let mut m = launch(&p);
        m.frames[0].func = FuncId(7);
        let m = crate::wire::decode_messenger(crate::wire::encode_messenger(&m)).unwrap();
        let want = VmError::Corrupt("function index out of range");
        assert_eq!(interp::run(&p, &mut m.clone(), &mut NullEnv, 100), Err(want.clone()));
        assert_eq!(run(&cp, &p, &mut m.clone(), &mut NullEnv, 100), Err(want));
    }

    #[test]
    fn typed_loop_is_bit_exact() {
        // while (i < 10) { acc = acc + i * 2; i = i + 1; } return acc —
        // same loop as arithmetic_loop_matches_interpreter, which its own
        // code licenses for the unboxed typed register file. With `acc`
        // starting as a string the same loop concatenates: the entry
        // check hands it to the generic executor.
        let mut b = Builder::new();
        let c0 = b.constant(Value::Int(0));
        let cs = b.constant(Value::str("s"));
        let c1 = b.constant(Value::Int(1));
        let c2 = b.constant(Value::Int(2));
        let c10 = b.constant(Value::Int(10));
        let code = vec![
            Op::Const(c0),
            Op::StoreLocal(0),
            Op::Const(c0),
            Op::StoreLocal(1),
            // loop head (pc 4)
            Op::LoadLocal(0),
            Op::Const(c10),
            Op::Lt,
            Op::JumpIfFalse(11),
            Op::LoadLocal(1),
            Op::LoadLocal(0),
            Op::Const(c2),
            Op::Mul,
            Op::Add,
            Op::StoreLocal(1),
            Op::LoadLocal(0),
            Op::Const(c1),
            Op::Add,
            Op::StoreLocal(0),
            Op::Jump(-15),
            // exit (pc 19)
            Op::LoadLocal(1),
            Op::Ret,
        ];
        let f = b.function("main", 0, 2, code);
        let p = b.finish(f);
        let cp = compile(&p).unwrap();
        assert_eq!(cp.typed_loops(), 1, "the loop must take the license");
        assert_eq!(both(&p, 10_000).unwrap(), Yield::Terminated(Value::Int(90)));
        let mut p_str = p.clone();
        p_str.funcs[0].code[2] = Op::Const(cs);
        assert_eq!(
            both(&p_str, 10_000).unwrap(),
            Yield::Terminated(Value::str("s024681012141618"))
        );
        for fuel in 0..80 {
            let mut mi = launch(&p);
            let mut mc = launch(&p);
            let mut ei = MapEnv::new();
            let mut ec = MapEnv::new();
            let ri = interp::run(&p, &mut mi, &mut ei, fuel);
            let rc = run(&cp, &p, &mut mc, &mut ec, fuel);
            assert_eq!(ri, rc, "fuel={fuel}");
            assert_eq!(mi.frames, mc.frames, "fuel={fuel}");
            assert_eq!(ei.ops, ec.ops, "fuel={fuel}: ops charge diverges");
        }
    }

    #[test]
    fn out_of_range_name_constants_fail_alike() {
        // A name index past the constant pool is corrupt code in both
        // engines, at the same pc and with the same stack — not a panic.
        for code in [
            vec![Op::LoadNode(999), Op::Ret],
            vec![Op::Const(0), Op::StoreNode(999), Op::Halt],
            vec![Op::Const(0), Op::CallNative { name: 999, argc: 1 }, Op::Ret],
        ] {
            let mut b = Builder::new();
            b.constant(Value::Int(1));
            let f = b.function("main", 0, 0, code);
            let p = b.finish(f);
            let err = both(&p, 100).unwrap_err();
            assert_eq!(err, VmError::Corrupt("constant index out of range"));
        }
    }

    #[test]
    fn node_vars_and_natives_match_interpreter() {
        let mut b = Builder::new();
        let visits = b.constant(Value::str("visits"));
        let one = b.constant(Value::Int(1));
        let code = vec![
            Op::LoadNode(visits),
            Op::Const(one),
            Op::Add,
            Op::StoreNode(visits),
            Op::LoadNode(visits),
            Op::Ret,
        ];
        let f = b.function("main", 0, 0, code);
        let p = b.finish(f);
        let cp = compile(&p).unwrap();
        let mut ei = MapEnv::new();
        let mut ec = MapEnv::new();
        let mut mi = launch(&p);
        let mut mc = launch(&p);
        let ri = interp::run(&p, &mut mi, &mut ei, 100).unwrap();
        let rc = run(&cp, &p, &mut mc, &mut ec, 100).unwrap();
        assert_eq!(ri, rc);
        assert_eq!(ri, Yield::Terminated(Value::Int(1)));
        assert_eq!(ei.vars, ec.vars, "node-variable effects diverge");
        assert_eq!(ei.ops, ec.ops);
    }
}

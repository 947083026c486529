//! The bytecode interpreter.
//!
//! [`run`] executes a messenger until it yields. Yield points implement
//! the paper's modified non-preemptive scheduling policy (§2.1): a
//! messenger runs uninterrupted through arbitrary computational
//! statements and native calls, and gives up the daemon only at a
//! navigational statement (`hop`/`create`/`delete`), a virtual-time
//! suspension, or termination. Everything between two yields is one
//! atomic *segment* — which is why the applications in §3 need no
//! explicit locking around `next_task()` / `deposit()`.

use crate::bytecode::{Dir, LinkPat, NamePat, NetVar, NodePat, Op, Program};
use crate::error::VmError;
use crate::state::{Frame, MessengerState, Vt};
use crate::value::{LinkInstance, Value};

/// What the world must provide to an executing messenger.
pub trait Env {
    /// Read a node variable at the current node (NULL if unset).
    fn node_var(&mut self, name: &str) -> Value;
    /// Write a node variable at the current node.
    fn set_node_var(&mut self, name: &str, v: Value);
    /// Read a network variable other than `$time` (which the interpreter
    /// answers from the messenger state itself).
    fn net_var(&mut self, var: NetVar) -> Value;
    /// Dispatch a native-function call.
    ///
    /// # Errors
    ///
    /// Implementations return [`VmError::UnknownNative`] /
    /// [`VmError::Native`] as appropriate.
    fn call_native(&mut self, name: &str, args: &[Value]) -> Result<Value, VmError>;
    /// Account `ops` interpreted bytecode operations for this segment.
    /// Called once, when the segment ends (including on error).
    fn charge_ops(&mut self, ops: u64) {
        let _ = ops;
    }
    /// Profiler sampling interval in executed ops; 0 disables sampling
    /// (the default — the dispatch loop then pays one branch per op and
    /// nothing else).
    fn sample_interval(&self) -> u64 {
        0
    }
    /// Profiler hook: the executed-op counter crossed `count` sampling
    /// interval boundaries while the messenger was at `(func, pc)`.
    /// Deterministic per seed: the trigger is op count, not wall clock.
    fn pc_sample(&mut self, func: u32, pc: u32, count: u64) {
        let _ = (func, pc, count);
    }
}

/// An [`Env`] with no node variables and no natives; node-variable writes
/// vanish. Useful for pure-computation tests and micro-benchmarks.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullEnv;

impl Env for NullEnv {
    fn node_var(&mut self, _name: &str) -> Value {
        Value::Null
    }
    fn set_node_var(&mut self, _name: &str, _v: Value) {}
    fn net_var(&mut self, _var: NetVar) -> Value {
        Value::Null
    }
    fn call_native(&mut self, name: &str, _args: &[Value]) -> Result<Value, VmError> {
        Err(VmError::UnknownNative(name.to_string()))
    }
}

/// A self-contained test/utility environment: node variables in a map, a
/// native registry, and fixed network-variable answers.
#[derive(Debug, Default)]
pub struct MapEnv {
    /// Node variables of the single simulated node.
    pub vars: std::collections::HashMap<String, Value>,
    /// Native function table.
    pub natives: crate::natives::NativeRegistry,
    /// Value of `$address`.
    pub address: i64,
    /// Value of `$last`.
    pub last: Value,
    /// Value of `$node`.
    pub node: Value,
    /// Total operations charged.
    pub ops: u64,
    /// Messenger id/vtime presented to natives.
    pub mid: crate::state::MessengerId,
    /// Virtual time presented to natives.
    pub vtime: Vt,
}

impl MapEnv {
    /// Fresh environment with no variables or natives.
    pub fn new() -> Self {
        MapEnv { node: Value::str("init"), last: Value::Null, ..Default::default() }
    }
}

struct MapEnvCtx<'a>(&'a mut MapEnv);

impl crate::natives::NativeCtx for MapEnvCtx<'_> {
    fn node_var(&mut self, name: &str) -> Value {
        self.0.vars.get(name).cloned().unwrap_or_default()
    }
    fn set_node_var(&mut self, name: &str, v: Value) {
        self.0.vars.insert(name.to_string(), v);
    }
    fn charge(&mut self, _ref_ns: u64) {}
    fn daemon(&self) -> u16 {
        self.0.address as u16
    }
    fn node_name(&self) -> Value {
        self.0.node.clone()
    }
    fn messenger(&self) -> crate::state::MessengerId {
        self.0.mid
    }
    fn vtime(&self) -> Vt {
        self.0.vtime
    }
}

impl Env for MapEnv {
    fn node_var(&mut self, name: &str) -> Value {
        self.vars.get(name).cloned().unwrap_or_default()
    }
    fn set_node_var(&mut self, name: &str, v: Value) {
        self.vars.insert(name.to_string(), v);
    }
    fn net_var(&mut self, var: NetVar) -> Value {
        match var {
            NetVar::Address => Value::Int(self.address),
            NetVar::Last => self.last.clone(),
            NetVar::Node => self.node.clone(),
            NetVar::Time => Value::Float(self.vtime.as_f64()),
        }
    }
    fn call_native(&mut self, name: &str, args: &[Value]) -> Result<Value, VmError> {
        let natives = self.natives.clone();
        natives.call(&mut MapEnvCtx(self), name, args)
    }
    fn charge_ops(&mut self, ops: u64) {
        self.ops += ops;
    }
}

/// An evaluated link selector of a `hop`/`delete`.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalLink {
    /// `*`: any link.
    Wild,
    /// `~`: unnamed links only.
    Unnamed,
    /// A specific name (string/int value).
    Named(Value),
    /// A specific link instance (the value of `$last`).
    Instance(LinkInstance),
    /// Direct jump to the node named by `ln`.
    Virtual,
}

/// A fully evaluated `hop`/`delete` destination.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalHop {
    /// Node-name constraint; `None` is the wildcard.
    pub ln: Option<Value>,
    /// Link constraint.
    pub ll: EvalLink,
    /// Direction constraint.
    pub ldir: Dir,
}

/// One evaluated item of a `create`.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalCreateItem {
    /// New node name (`None` = unnamed).
    pub ln: Option<Value>,
    /// Connecting link name (`None` = unnamed).
    pub ll: Option<Value>,
    /// Orientation of the connecting link.
    pub ldir: Dir,
    /// Daemon placement constraint (`None` = wildcard).
    pub dn: Option<Value>,
    /// Daemon-link constraint.
    pub dl: EvalLink,
    /// Daemon-link direction.
    pub ddir: Dir,
}

/// A fully evaluated `create`.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalCreate {
    /// Items, in source order.
    pub items: Vec<EvalCreateItem>,
    /// The `ALL` flag.
    pub all: bool,
}

/// Why the interpreter stopped: the segment's outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum Yield {
    /// The messenger finished (entry function returned / `Halt`), with
    /// its final value.
    Terminated(Value),
    /// `hop(...)` — replicate to matching neighbors; this copy dies.
    Hop(EvalHop),
    /// `delete(...)` — like hop, destroying traversed links.
    Delete(EvalHop),
    /// `create(...)` — build nodes/links, move there.
    Create(EvalCreate),
    /// `M_sched_time_abs(t)` — suspend until virtual time `t`.
    SchedAbs(Vt),
    /// `M_sched_time_dlt(dt)` — suspend for `dt` virtual time.
    SchedDlt(f64),
}

// Operator semantics (`arith_top`, `compare_top`, `neg`, `pop`, `jump`)
// live in `crate::binop`, shared verbatim with the fused loops.
use crate::binop::{arith_top, compare_top, jump, pop, Arith, Cmp};
use crate::compile::{self, CompiledProgram};

/// The default fuel budget for one segment: generous enough for any of
/// the paper's computational bursts, small enough to catch runaway loops
/// in tests.
pub const DEFAULT_FUEL: u64 = 50_000_000;

/// Execute `m` until it yields, returns, or errors.
///
/// On return the messenger state is *after* the yield instruction, so
/// the daemon can clone/ship it and resume replicas directly.
///
/// # Errors
///
/// Any [`VmError`]; the messenger should then be discarded (and the
/// error surfaced through the platform's fault log).
pub fn run(
    program: &Program,
    m: &mut MessengerState,
    env: &mut dyn Env,
    fuel: u64,
) -> Result<Yield, VmError> {
    segment::<false>(None, program, m, env, fuel)
}

/// One segment on the dispatch loop. With `FUSE`, a backward `Jump`
/// enters `cp`'s fused loop headed at its target ([`compile::run`]);
/// without, the loop has no such check.
pub(crate) fn segment<const FUSE: bool>(
    cp: Option<&CompiledProgram>,
    program: &Program,
    m: &mut MessengerState,
    env: &mut dyn Env,
    fuel: u64,
) -> Result<Yield, VmError> {
    let mut ops: u64 = 0;
    let out = run_inner::<FUSE>(cp, program, m, env, fuel, &mut ops);
    env.charge_ops(ops);
    out
}

/// The name constant at pool index `i`, borrowed: what `LoadNode`,
/// `StoreNode` and `CallNative` name. Both engines raise the same errors
/// for an index past the pool or a constant that is not a string.
pub(crate) fn const_name(program: &Program, i: u16) -> Result<&str, VmError> {
    program.consts.get(i as usize).ok_or(VmError::Corrupt("constant index out of range"))?.as_str()
}

fn run_inner<const FUSE: bool>(
    cp: Option<&CompiledProgram>,
    program: &Program,
    m: &mut MessengerState,
    env: &mut dyn Env,
    fuel: u64,
    ops: &mut u64,
) -> Result<Yield, VmError> {
    let interval = env.sample_interval();
    let mut next = if interval == 0 { u64::MAX } else { interval };
    // The one compare per op: past it lies the fuel error or a sample.
    let mut limit = fuel.min(next);
    // Once a fused loop deopts, finish the segment unfused: the fault
    // that forced the deopt is about to fire at the interpreter's own
    // position.
    let mut fast = FUSE;
    // The active frame, its function and its code are resolved once per
    // activation: at entry, and after each call, return and fall-off.
    'frames: loop {
        let frame = m.frames.last_mut().ok_or(VmError::Corrupt("no active frame"))?;
        // A decoded frame may name any function: check, do not index.
        let func =
            program.func(frame.func).ok_or(VmError::Corrupt("function index out of range"))?;
        let code = func.code.as_slice();
        loop {
            if *ops >= limit {
                if *ops >= fuel {
                    return Err(VmError::FuelExhausted);
                }
                // Attribute every interval boundary the previous op
                // crossed to the current program counter (flat profile, no
                // stacks).
                let crossings = (*ops - next) / interval + 1;
                env.pc_sample(u32::from(frame.func.0), frame.pc, crossings);
                next += crossings * interval;
                limit = fuel.min(next);
            }
            // Falling off the end of a function is an implicit `return NULL`.
            let Some(&op) = code.get(frame.pc as usize) else {
                m.frames.pop();
                match m.frames.last_mut() {
                    None => return Ok(Yield::Terminated(Value::Null)),
                    Some(caller) => {
                        caller.stack.push(Value::Null);
                        continue 'frames;
                    }
                }
            };
            frame.pc += 1;
            *ops += 1;
            match op {
                Op::Const(i) => {
                    let v = program
                        .consts
                        .get(i as usize)
                        .ok_or(VmError::Corrupt("constant index out of range"))?
                        .clone();
                    frame.stack.push(v);
                }
                Op::LoadLocal(i) => {
                    let v = frame
                        .locals
                        .get(i as usize)
                        .ok_or(VmError::Corrupt("local slot out of range"))?
                        .clone();
                    frame.stack.push(v);
                }
                Op::StoreLocal(i) => {
                    let v = pop(&mut frame.stack)?;
                    let slot = frame
                        .locals
                        .get_mut(i as usize)
                        .ok_or(VmError::Corrupt("local slot out of range"))?;
                    *slot = v;
                }
                // Names are borrowed from the constant pool, not copied; the
                // verifier's V010 makes each one a string.
                Op::LoadNode(i) => {
                    let v = env.node_var(const_name(program, i)?);
                    frame.stack.push(v);
                }
                Op::StoreNode(i) => {
                    let v = pop(&mut frame.stack)?;
                    env.set_node_var(const_name(program, i)?, v);
                }
                Op::LoadNet(var) => {
                    let v = match var {
                        NetVar::Time => Value::Float(m.vtime.as_f64()),
                        other => env.net_var(other),
                    };
                    frame.stack.push(v);
                }
                Op::Dup => {
                    let v =
                        frame.stack.last().ok_or(VmError::Corrupt("dup on empty stack"))?.clone();
                    frame.stack.push(v);
                }
                Op::Pop => {
                    pop(&mut frame.stack)?;
                }
                Op::Add => arith_top(Arith::Add, &mut frame.stack)?,
                Op::Sub => arith_top(Arith::Sub, &mut frame.stack)?,
                Op::Mul => arith_top(Arith::Mul, &mut frame.stack)?,
                Op::Div => arith_top(Arith::Div, &mut frame.stack)?,
                Op::Mod => arith_top(Arith::Mod, &mut frame.stack)?,
                Op::Neg => {
                    let a = pop(&mut frame.stack)?;
                    frame.stack.push(crate::binop::neg(a)?);
                }
                Op::Not => {
                    let a = pop(&mut frame.stack)?;
                    frame.stack.push(Value::Bool(!a.is_truthy()));
                }
                Op::Eq | Op::Ne => {
                    let b = pop(&mut frame.stack)?;
                    let a = pop(&mut frame.stack)?;
                    let eq = a.loose_eq(&b);
                    frame.stack.push(Value::Bool(if matches!(op, Op::Eq) { eq } else { !eq }));
                }
                Op::Lt => compare_top(Cmp::Lt, &mut frame.stack)?,
                Op::Le => compare_top(Cmp::Le, &mut frame.stack)?,
                Op::Gt => compare_top(Cmp::Gt, &mut frame.stack)?,
                Op::Ge => compare_top(Cmp::Ge, &mut frame.stack)?,
                Op::Jump(off) => {
                    frame.pc = jump(frame.pc, off);
                    if FUSE && fast && off < 0 {
                        if let Some(cp) = cp {
                            fast = compile::enter_loop(cp, frame, fuel, ops);
                        }
                    }
                }
                Op::JumpIfFalse(off) => {
                    let v = pop(&mut frame.stack)?;
                    if !v.is_truthy() {
                        frame.pc = jump(frame.pc, off);
                    }
                }
                Op::JumpIfTruePeek(off) => {
                    let v = frame.stack.last().ok_or(VmError::Corrupt("peek on empty stack"))?;
                    if v.is_truthy() {
                        frame.pc = jump(frame.pc, off);
                    }
                }
                Op::JumpIfFalsePeek(off) => {
                    let v = frame.stack.last().ok_or(VmError::Corrupt("peek on empty stack"))?;
                    if !v.is_truthy() {
                        frame.pc = jump(frame.pc, off);
                    }
                }
                Op::Call { f, argc } => {
                    let at = frame
                        .stack
                        .len()
                        .checked_sub(argc as usize)
                        .ok_or(VmError::Corrupt("call args underflow"))?;
                    let callee = crate::bytecode::FuncId(f);
                    let new_frame = Frame::activate(program, callee, frame.stack.drain(at..))?;
                    m.frames.push(new_frame);
                    continue 'frames;
                }
                Op::CallNative { name, argc } => {
                    let at = frame
                        .stack
                        .len()
                        .checked_sub(argc as usize)
                        .ok_or(VmError::Corrupt("native args underflow"))?;
                    let args: Vec<Value> = frame.stack.split_off(at);
                    let v = env.call_native(const_name(program, name)?, &args)?;
                    frame.stack.push(v);
                }
                Op::Ret => {
                    let v = pop(&mut frame.stack)?;
                    m.frames.pop();
                    match m.frames.last_mut() {
                        None => return Ok(Yield::Terminated(v)),
                        Some(caller) => {
                            caller.stack.push(v);
                            continue 'frames;
                        }
                    }
                }
                Op::Hop(i) | Op::Delete(i) => {
                    let spec = *program
                        .hop_specs
                        .get(i as usize)
                        .ok_or(VmError::Corrupt("hop spec out of range"))?;
                    // Operands were pushed ln-then-ll; pop in reverse.
                    let ll = match spec.ll {
                        LinkPat::Wild => EvalLink::Wild,
                        LinkPat::Unnamed => EvalLink::Unnamed,
                        LinkPat::Virtual => EvalLink::Virtual,
                        LinkPat::Expr => match pop(&mut frame.stack)? {
                            Value::Link(inst) => EvalLink::Instance(inst),
                            Value::Null => EvalLink::Unnamed,
                            v => EvalLink::Named(v),
                        },
                    };
                    let ln = match spec.ln {
                        NodePat::Wild => None,
                        NodePat::Expr => Some(pop(&mut frame.stack)?),
                    };
                    let eh = EvalHop { ln, ll, ldir: spec.ldir };
                    return Ok(if matches!(op, Op::Hop(_)) {
                        Yield::Hop(eh)
                    } else {
                        Yield::Delete(eh)
                    });
                }
                Op::Create(i) => {
                    let spec = program
                        .create_specs
                        .get(i as usize)
                        .ok_or(VmError::Corrupt("create spec out of range"))?
                        .clone();
                    // Operands pushed per item in order (ln, ll, dn, dl);
                    // pop everything in reverse.
                    let mut items: Vec<EvalCreateItem> = Vec::with_capacity(spec.items.len());
                    for it in spec.items.iter().rev() {
                        let dl = match it.dl {
                            LinkPat::Wild => EvalLink::Wild,
                            LinkPat::Unnamed => EvalLink::Unnamed,
                            LinkPat::Virtual => EvalLink::Virtual,
                            LinkPat::Expr => match pop(&mut frame.stack)? {
                                Value::Link(inst) => EvalLink::Instance(inst),
                                Value::Null => EvalLink::Unnamed,
                                v => EvalLink::Named(v),
                            },
                        };
                        let dn = match it.dn {
                            NodePat::Wild => None,
                            NodePat::Expr => Some(pop(&mut frame.stack)?),
                        };
                        let ll = match it.ll {
                            NamePat::Unnamed => None,
                            NamePat::Expr => Some(pop(&mut frame.stack)?),
                        };
                        let ln = match it.ln {
                            NamePat::Unnamed => None,
                            NamePat::Expr => Some(pop(&mut frame.stack)?),
                        };
                        items.push(EvalCreateItem { ln, ll, ldir: it.ldir, dn, dl, ddir: it.ddir });
                    }
                    items.reverse();
                    return Ok(Yield::Create(EvalCreate { items, all: spec.all }));
                }
                Op::SchedAbs => {
                    let t = pop(&mut frame.stack)?.as_float()?;
                    if t.is_nan() {
                        return Err(VmError::Corrupt("NaN virtual time"));
                    }
                    return Ok(Yield::SchedAbs(Vt::new(t)));
                }
                Op::SchedDlt => {
                    let dt = pop(&mut frame.stack)?.as_float()?;
                    if dt.is_nan() {
                        return Err(VmError::Corrupt("NaN virtual time"));
                    }
                    return Ok(Yield::SchedDlt(dt));
                }
                Op::Halt => return Ok(Yield::Terminated(Value::Null)),
                Op::MakeArr => {
                    let default = pop(&mut frame.stack)?;
                    let n = pop(&mut frame.stack)?.as_int()?;
                    if !(0..=(1 << 24)).contains(&n) {
                        return Err(VmError::Native(format!("bad array size {n}")));
                    }
                    frame.stack.push(Value::Arr(std::sync::Arc::new(vec![default; n as usize])));
                }
                Op::IndexGet => {
                    let idx = pop(&mut frame.stack)?.as_int()?;
                    let arr = pop(&mut frame.stack)?;
                    let arr = arr.as_array()?;
                    let v = arr
                        .get(usize::try_from(idx).map_err(|_| {
                            VmError::Native(format!("array index {idx} out of bounds"))
                        })?)
                        .ok_or_else(|| {
                            VmError::Native(format!(
                                "array index {idx} out of bounds (len {})",
                                arr.len()
                            ))
                        })?
                        .clone();
                    frame.stack.push(v);
                }
                Op::IndexSet => {
                    let value = pop(&mut frame.stack)?;
                    let idx = pop(&mut frame.stack)?.as_int()?;
                    let mut arr = match pop(&mut frame.stack)? {
                        Value::Arr(a) => a,
                        other => return Err(VmError::type_error("array", &other)),
                    };
                    let len = arr.len();
                    let slot = std::sync::Arc::make_mut(&mut arr)
                        .get_mut(usize::try_from(idx).unwrap_or(usize::MAX))
                        .ok_or_else(|| {
                            VmError::Native(format!("array index {idx} out of bounds (len {len})"))
                        })?;
                    *slot = value;
                    frame.stack.push(Value::Arr(arr));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{Builder, CreateItem, CreateSpec, HopSpec, Op};
    use crate::state::MessengerId;

    fn launch(p: &Program) -> MessengerState {
        MessengerState::launch(p, MessengerId(1), &[]).unwrap()
    }

    fn run_main(code: Vec<Op>, b: Builder) -> Result<Yield, VmError> {
        let mut b = b;
        let f = b.function("main", 0, 4, code);
        let p = b.finish(f);
        let mut m = launch(&p);
        run(&p, &mut m, &mut NullEnv, 10_000)
    }

    #[test]
    fn arithmetic_and_return() {
        let mut b = Builder::new();
        let c10 = b.constant(Value::Int(10));
        let c3 = b.constant(Value::Int(3));
        // (10 - 3) * 10 % 3 => 70 % 3 => 1
        let y = run_main(
            vec![
                Op::Const(c10),
                Op::Const(c3),
                Op::Sub,
                Op::Const(c10),
                Op::Mul,
                Op::Const(c3),
                Op::Mod,
                Op::Ret,
            ],
            b,
        )
        .unwrap();
        assert_eq!(y, Yield::Terminated(Value::Int(1)));
    }

    #[test]
    fn float_promotion() {
        let mut b = Builder::new();
        let ci = b.constant(Value::Int(3));
        let cf = b.constant(Value::Float(0.5));
        let y = run_main(vec![Op::Const(ci), Op::Const(cf), Op::Add, Op::Ret], b).unwrap();
        assert_eq!(y, Yield::Terminated(Value::Float(3.5)));
    }

    #[test]
    fn string_concat() {
        let mut b = Builder::new();
        let cs = b.constant(Value::str("n"));
        let ci = b.constant(Value::Int(7));
        let y = run_main(vec![Op::Const(cs), Op::Const(ci), Op::Add, Op::Ret], b).unwrap();
        assert_eq!(y, Yield::Terminated(Value::str("n7")));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let mut b = Builder::new();
        let c1 = b.constant(Value::Int(1));
        let c0 = b.constant(Value::Int(0));
        let e = run_main(vec![Op::Const(c1), Op::Const(c0), Op::Div, Op::Ret], b).unwrap_err();
        assert_eq!(e, VmError::DivisionByZero);
        // Float division by zero is C-like: infinity, not an error.
        let mut b = Builder::new();
        let c1 = b.constant(Value::Float(1.0));
        let c0 = b.constant(Value::Float(0.0));
        let y = run_main(vec![Op::Const(c1), Op::Const(c0), Op::Div, Op::Ret], b).unwrap();
        assert_eq!(y, Yield::Terminated(Value::Float(f64::INFINITY)));
    }

    #[test]
    fn locals_load_store() {
        let mut b = Builder::new();
        let c5 = b.constant(Value::Int(5));
        let y = run_main(
            vec![
                Op::Const(c5),
                Op::StoreLocal(0),
                Op::LoadLocal(0),
                Op::LoadLocal(0),
                Op::Add,
                Op::Ret,
            ],
            b,
        )
        .unwrap();
        assert_eq!(y, Yield::Terminated(Value::Int(10)));
    }

    #[test]
    fn loop_with_jumps() {
        // i = 0; acc = 0; while (i < 5) { acc = acc + i; i = i + 1; } ret acc
        let mut b = Builder::new();
        let c0 = b.constant(Value::Int(0));
        let c1 = b.constant(Value::Int(1));
        let c5 = b.constant(Value::Int(5));
        let code = vec![
            Op::Const(c0),
            Op::StoreLocal(0), // i
            Op::Const(c0),
            Op::StoreLocal(1), // acc
            // loop head (pc=4)
            Op::LoadLocal(0),
            Op::Const(c5),
            Op::Lt,
            Op::JumpIfFalse(9), // to the trailing LoadLocal
            Op::LoadLocal(1),
            Op::LoadLocal(0),
            Op::Add,
            Op::StoreLocal(1),
            Op::LoadLocal(0),
            Op::Const(c1),
            Op::Add,
            Op::StoreLocal(0),
            Op::Jump(-13), // back to loop head
            Op::LoadLocal(1),
            Op::Ret,
        ];
        let y = run_main(code, b).unwrap();
        assert_eq!(y, Yield::Terminated(Value::Int(10)));
    }

    #[test]
    fn user_function_call_and_implicit_return() {
        let mut b = Builder::new();
        let c2 = b.constant(Value::Int(2));
        // callee: double(x) { return x + x; }
        let double =
            b.function("double", 1, 0, vec![Op::LoadLocal(0), Op::LoadLocal(0), Op::Add, Op::Ret]);
        // drop(x) {}  -- implicit NULL return
        let dropf = b.function("drop", 1, 0, vec![]);
        let main = b.function(
            "main",
            0,
            0,
            vec![
                Op::Const(c2),
                Op::Call { f: double.0, argc: 1 },
                Op::Const(c2),
                Op::Call { f: dropf.0, argc: 1 },
                Op::Pop, // discard NULL
                Op::Ret,
            ],
        );
        let p = b.finish(main);
        let mut m = launch(&p);
        let y = run(&p, &mut m, &mut NullEnv, 10_000).unwrap();
        assert_eq!(y, Yield::Terminated(Value::Int(4)));
    }

    #[test]
    fn fuel_exhaustion() {
        let e = run_main(vec![Op::Jump(-1)], Builder::new());
        assert_eq!(e.unwrap_err(), VmError::FuelExhausted);
    }

    #[test]
    fn hop_yield_evaluates_operands_and_advances_pc() {
        let mut b = Builder::new();
        let name = b.constant(Value::str("row"));
        let spec = b.hop_spec(HopSpec { ln: NodePat::Wild, ll: LinkPat::Expr, ldir: Dir::Forward });
        let after = b.constant(Value::Int(99));
        let f = b.function(
            "main",
            0,
            0,
            vec![Op::Const(name), Op::Hop(spec), Op::Const(after), Op::Ret],
        );
        let p = b.finish(f);
        let mut m = launch(&p);
        let y = run(&p, &mut m, &mut NullEnv, 100).unwrap();
        assert_eq!(
            y,
            Yield::Hop(EvalHop {
                ln: None,
                ll: EvalLink::Named(Value::str("row")),
                ldir: Dir::Forward
            })
        );
        // The state resumes *after* the hop: running again returns 99.
        let y2 = run(&p, &mut m, &mut NullEnv, 100).unwrap();
        assert_eq!(y2, Yield::Terminated(Value::Int(99)));
    }

    #[test]
    fn hop_on_link_instance_value() {
        let mut b = Builder::new();
        let spec = b.hop_spec(HopSpec { ln: NodePat::Wild, ll: LinkPat::Expr, ldir: Dir::Any });
        let f = b.function("main", 0, 0, vec![Op::LoadNet(NetVar::Last), Op::Hop(spec)]);
        let p = b.finish(f);
        let mut m = launch(&p);
        let mut env = MapEnv::new();
        env.last = Value::Link(LinkInstance(42));
        let y = run(&p, &mut m, &mut env, 100).unwrap();
        assert_eq!(
            y,
            Yield::Hop(EvalHop {
                ln: None,
                ll: EvalLink::Instance(LinkInstance(42)),
                ldir: Dir::Any
            })
        );
    }

    #[test]
    fn create_all_yield() {
        let mut b = Builder::new();
        let spec = b.create_spec(CreateSpec { items: vec![CreateItem::default()], all: true });
        let f = b.function("main", 0, 0, vec![Op::Create(spec), Op::Halt]);
        let p = b.finish(f);
        let mut m = launch(&p);
        let y = run(&p, &mut m, &mut NullEnv, 100).unwrap();
        match y {
            Yield::Create(c) => {
                assert!(c.all);
                assert_eq!(c.items.len(), 1);
                assert_eq!(c.items[0].ln, None);
                assert_eq!(c.items[0].dl, EvalLink::Wild);
            }
            other => panic!("expected create, got {other:?}"),
        }
    }

    #[test]
    fn create_multi_item_operand_order() {
        // create(ln=a,b; ll=x,y): operands must map to the right items.
        let mut b = Builder::new();
        let ca = b.constant(Value::str("a"));
        let cb = b.constant(Value::str("b"));
        let cx = b.constant(Value::str("x"));
        let cy = b.constant(Value::str("y"));
        let spec = b.create_spec(CreateSpec {
            items: vec![
                CreateItem { ln: NamePat::Expr, ll: NamePat::Expr, ..Default::default() },
                CreateItem { ln: NamePat::Expr, ll: NamePat::Expr, ..Default::default() },
            ],
            all: false,
        });
        let f = b.function(
            "main",
            0,
            0,
            vec![
                Op::Const(ca),
                Op::Const(cx),
                Op::Const(cb),
                Op::Const(cy),
                Op::Create(spec),
                Op::Halt,
            ],
        );
        let p = b.finish(f);
        let mut m = launch(&p);
        match run(&p, &mut m, &mut NullEnv, 100).unwrap() {
            Yield::Create(c) => {
                assert_eq!(c.items[0].ln, Some(Value::str("a")));
                assert_eq!(c.items[0].ll, Some(Value::str("x")));
                assert_eq!(c.items[1].ln, Some(Value::str("b")));
                assert_eq!(c.items[1].ll, Some(Value::str("y")));
            }
            other => panic!("expected create, got {other:?}"),
        }
    }

    #[test]
    fn sched_yields() {
        let mut b = Builder::new();
        let c = b.constant(Value::Float(2.5));
        let f = b.function("main", 0, 0, vec![Op::Const(c), Op::SchedAbs, Op::Halt]);
        let p = b.finish(f);
        let mut m = launch(&p);
        assert_eq!(run(&p, &mut m, &mut NullEnv, 100).unwrap(), Yield::SchedAbs(Vt::new(2.5)));
        assert_eq!(run(&p, &mut m, &mut NullEnv, 100).unwrap(), Yield::Terminated(Value::Null));
    }

    #[test]
    fn node_vars_via_env() {
        let mut b = Builder::new();
        let cname = b.constant(Value::str("counter"));
        let c1 = b.constant(Value::Int(1));
        let f = b.function(
            "main",
            0,
            0,
            vec![
                Op::LoadNode(cname),
                Op::Const(c1),
                Op::Add,
                Op::StoreNode(cname),
                Op::LoadNode(cname),
                Op::Ret,
            ],
        );
        let p = b.finish(f);
        let mut env = MapEnv::new();
        env.vars.insert("counter".into(), Value::Int(41));
        let mut m = launch(&p);
        let y = run(&p, &mut m, &mut env, 100).unwrap();
        assert_eq!(y, Yield::Terminated(Value::Int(42)));
        assert_eq!(env.vars["counter"], Value::Int(42));
        assert!(env.ops > 0);
    }

    #[test]
    fn net_vars_and_natives_via_map_env() {
        let mut b = Builder::new();
        let cn = b.constant(Value::str("twice"));
        let f = b.function(
            "main",
            0,
            0,
            vec![Op::LoadNet(NetVar::Address), Op::CallNative { name: cn, argc: 1 }, Op::Ret],
        );
        let p = b.finish(f);
        let mut env = MapEnv::new();
        env.address = 21;
        env.natives.register("twice", |_, args| {
            Ok(Value::Int(args[0].as_int().map_err(|e| e.to_string())? * 2))
        });
        let mut m = launch(&p);
        let y = run(&p, &mut m, &mut env, 100).unwrap();
        assert_eq!(y, Yield::Terminated(Value::Int(42)));
    }

    #[test]
    fn unknown_native_bubbles_up() {
        let mut b = Builder::new();
        let cn = b.constant(Value::str("ghost"));
        let f = b.function("main", 0, 0, vec![Op::CallNative { name: cn, argc: 0 }, Op::Halt]);
        let p = b.finish(f);
        let mut m = launch(&p);
        let e = run(&p, &mut m, &mut MapEnv::new(), 100).unwrap_err();
        assert!(matches!(e, VmError::UnknownNative(n) if n == "ghost"));
    }

    #[test]
    fn short_circuit_peek_jumps() {
        // false && (1/0) — must not evaluate the division.
        let mut b = Builder::new();
        let cf = b.constant(Value::Bool(false));
        let c1 = b.constant(Value::Int(1));
        let c0 = b.constant(Value::Int(0));
        let code = vec![
            Op::Const(cf),
            Op::JumpIfFalsePeek(4),
            Op::Pop,
            Op::Const(c1),
            Op::Const(c0),
            Op::Div,
            Op::Ret,
        ];
        let y = run_main(code, b).unwrap();
        assert_eq!(y, Yield::Terminated(Value::Bool(false)));
    }

    #[test]
    fn comparisons() {
        let mut b = Builder::new();
        let c1 = b.constant(Value::Int(1));
        let c2 = b.constant(Value::Float(2.0));
        let y = run_main(vec![Op::Const(c1), Op::Const(c2), Op::Lt, Op::Ret], b).unwrap();
        assert_eq!(y, Yield::Terminated(Value::Bool(true)));
        let mut b = Builder::new();
        let ca = b.constant(Value::str("abc"));
        let cb = b.constant(Value::str("abd"));
        let y = run_main(vec![Op::Const(ca), Op::Const(cb), Op::Ge, Op::Ret], b).unwrap();
        assert_eq!(y, Yield::Terminated(Value::Bool(false)));
    }

    #[test]
    fn null_comparisons_work() {
        let mut b = Builder::new();
        let cn = b.constant(Value::Null);
        let c0 = b.constant(Value::Int(0));
        let y = run_main(vec![Op::Const(cn), Op::Const(c0), Op::Ne, Op::Ret], b).unwrap();
        assert_eq!(y, Yield::Terminated(Value::Bool(true)));
    }

    #[test]
    fn corrupt_code_reports_errors() {
        let b = Builder::new();
        let e = run_main(vec![Op::Pop], b).unwrap_err();
        assert!(matches!(e, VmError::Corrupt(_)));
        let b = Builder::new();
        let e = run_main(vec![Op::Const(999), Op::Ret], b).unwrap_err();
        assert!(matches!(e, VmError::Corrupt(_)));
        // Name constants are checked like `Const`: no panic.
        for code in [
            vec![Op::LoadNode(999), Op::Ret],
            vec![Op::Const(0), Op::StoreNode(999), Op::Halt],
            vec![Op::CallNative { name: 999, argc: 0 }, Op::Ret],
        ] {
            let mut b = Builder::new();
            b.constant(Value::Int(1));
            let e = run_main(code, b).unwrap_err();
            assert_eq!(e, VmError::Corrupt("constant index out of range"));
        }
    }
}

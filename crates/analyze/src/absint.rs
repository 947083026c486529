//! The verifier core, and the analyzer's one dataflow: abstract
//! interpretation of one function's operand stack and locals over all
//! control-flow paths.
//!
//! The abstract domain per value is a *kind* ([`SumKind`], the flat
//! lattice over the `Value` variants) plus a *taint set* recording
//! which node variables the value was read from and whether it has
//! crossed a yield (`hop`/`create`/`delete`/`sched`) since. The kind
//! feeds the hop-destination lint; the taint feeds the §2.1
//! lost-update lint; the stack depth itself is what verification
//! proves (no underflow, merge-point consistency, a static bound).
//! Each per-pc state also carries the most navigation and the node
//! variables surely written on the way there, so a function's summary
//! is read off the same fixpoint that verifies it.

use std::collections::{BTreeMap, BTreeSet};

use msgr_vm::{Function, LinkPat, NodePat, Op, Program, Value};

use crate::summary::{FnSummary, HopBehavior, SumKind};
use crate::Diag;

/// Hard bound on the statically-proven operand-stack depth. Deeper
/// programs are rejected (V012): a daemon must be able to preallocate.
pub const MAX_STACK: usize = 1024;

/// Taint flag: the value crossed a yield (`hop`/`create`/`sched`)
/// since it was read from its node variable.
pub(crate) const CROSSED: u8 = 1;
/// Taint flag: a call to a function that *writes* the same node
/// variable happened while the value was held.
pub(crate) const CLOBBERED: u8 = 2;

/// Taint: node-variable name constants this value was derived from,
/// with [`CROSSED`]/[`CLOBBERED`] flags accumulated while it is held.
type Taint = BTreeMap<u16, u8>;

#[derive(Debug, Clone, PartialEq)]
struct AbsVal {
    kind: SumKind,
    taint: Taint,
    /// The kind was (partly) learned from a callee's return-kind
    /// summary — distinguishes the interprocedural hop lint (N401)
    /// from the local one (N203).
    via_call: bool,
}

impl AbsVal {
    fn top() -> AbsVal {
        AbsVal::of_kind(SumKind::Top)
    }

    fn of_kind(kind: SumKind) -> AbsVal {
        AbsVal { kind, taint: Taint::new(), via_call: false }
    }

    fn join(&self, other: &AbsVal) -> AbsVal {
        AbsVal {
            kind: self.kind.join(other.kind),
            taint: union(&self.taint, &other.taint),
            via_call: self.via_call || other.via_call,
        }
    }
}

fn union(a: &Taint, b: &Taint) -> Taint {
    let mut out = a.clone();
    for (&k, &flags) in b {
        *out.entry(k).or_insert(0) |= flags;
    }
    out
}

#[derive(Debug, Clone, PartialEq)]
struct State {
    stack: Vec<AbsVal>,
    locals: Vec<AbsVal>,
    /// The most navigation on any path here.
    hops: HopBehavior,
    /// Node variables written on every path here.
    writes: BTreeSet<u16>,
}

impl State {
    fn join(&self, other: &State) -> Option<State> {
        if self.stack.len() != other.stack.len() {
            return None;
        }
        let zip = |a: &[AbsVal], b: &[AbsVal]| {
            a.iter().zip(b).map(|(x, y)| x.join(y)).collect::<Vec<_>>()
        };
        Some(State {
            stack: zip(&self.stack, &other.stack),
            locals: zip(&self.locals, &other.locals),
            hops: self.hops.max(other.hops),
            writes: self.writes.intersection(&other.writes).copied().collect(),
        })
    }

    /// A yield point: everything still held crossed it.
    fn cross_yield(&mut self) {
        for v in self.stack.iter_mut().chain(self.locals.iter_mut()) {
            for flags in v.taint.values_mut() {
                *flags |= CROSSED;
            }
        }
    }

    /// A call to a function whose summary says it writes `writes`:
    /// held values read from those variables are now stale.
    fn cross_writer(&mut self, writes: &BTreeSet<u16>) {
        for v in self.stack.iter_mut().chain(self.locals.iter_mut()) {
            for (var, flags) in v.taint.iter_mut() {
                if writes.contains(var) {
                    *flags |= CLOBBERED;
                }
            }
        }
    }

    /// Navigate `more` times after the navigation so far.
    fn navigate(&mut self, more: HopBehavior) {
        self.hops = match (self.hops, more) {
            (HopBehavior::HopFree, h) | (h, HopBehavior::HopFree) => h,
            _ => HopBehavior::MayNavigate,
        };
    }
}

/// One joined hop/delete destination operand: its kind, and whether
/// the kind was learned from a callee's return-kind summary.
pub(crate) type HopOp = Option<(SumKind, bool)>;

/// Everything the dataflow learned about one function.
pub(crate) struct Flow {
    /// Whether each pc was reached along some path.
    pub reach: Vec<bool>,
    /// Maximum operand-stack depth on any path.
    pub max_stack: usize,
    /// Joined operand kinds `(ln, ll)` observed at each `Hop`/`Delete`.
    pub hop_operands: BTreeMap<usize, (HopOp, HopOp)>,
    /// Lint diagnostics produced during interpretation (N301/N302).
    pub lints: Vec<Diag>,
    /// The returned kind, joined over every `Ret` and falling off the
    /// end (NULL); ⊤ when no path returns. `Halt` is not a return.
    pub ret_kind: SumKind,
    /// The most navigation on any path.
    pub hop: HopBehavior,
    /// Node variables written on every path to every exit (`Ret`,
    /// `Halt`, falling off the end); ∅ when no exit is reachable.
    pub must_writes: BTreeSet<u16>,
}

/// Abstractly interpret `f`, verifying stack discipline.
///
/// `structural_check` must have passed: indices and jump targets are
/// assumed in range here. `funcs` holds the final summary of every
/// function `f` calls (functions are interpreted callees-first): a call
/// returns the callee's return kind, taints held values the callee may
/// overwrite (N302), and adds the callee's navigation and must-writes
/// to the path's. Summaries shape kinds, taints and the read-off facts,
/// never stack depths, so verdicts do not depend on them. `yielders`
/// is [`may_yield`] of `p`.
pub(crate) fn interpret(
    p: &Program,
    fi: usize,
    f: &Function,
    funcs: &[FnSummary],
    yielders: &BTreeSet<usize>,
) -> Result<Flow, Vec<Diag>> {
    let len = f.code.len();
    let mut states: Vec<Option<State>> = vec![None; len];
    let mut reach = vec![false; len];
    let mut max_stack = 0usize;
    let mut hop = HopBehavior::HopFree;
    let mut ret_kind: Option<SumKind> = None;
    let mut must_writes: Option<BTreeSet<u16>> = None;
    let mut hop_operands: BTreeMap<usize, (HopOp, HopOp)> = BTreeMap::new();
    let mut stale_writes: BTreeSet<(usize, u16)> = BTreeSet::new();
    let mut clobbered_writes: BTreeSet<(usize, u16)> = BTreeSet::new();

    // Leave the function with `writes` done on the way, returning a
    // value of kind `ret` (`None` for `Halt`).
    let mut exit = |writes: &BTreeSet<u16>, ret: Option<SumKind>| {
        if let Some(k) = ret {
            ret_kind = Some(ret_kind.map_or(k, |r| r.join(k)));
        }
        must_writes = Some(match must_writes.take() {
            None => writes.clone(),
            Some(w) => w.intersection(writes).copied().collect(),
        });
    };

    let entry = State {
        stack: Vec::new(),
        // Parameters and uninitialized slots are both Top: `LoadLocal`
        // of a never-stored slot reads NULL at runtime, but treating it
        // as Top avoids spurious never-matches lints.
        locals: vec![AbsVal::top(); f.n_slots as usize],
        hops: HopBehavior::HopFree,
        writes: BTreeSet::new(),
    };
    let mut work: Vec<usize> = Vec::new();
    if len > 0 {
        states[0] = Some(entry);
        work.push(0);
    } else {
        exit(&entry.writes, Some(SumKind::Null));
    }

    while let Some(pc) = work.pop() {
        reach[pc] = true;
        let mut st = states[pc].clone().expect("worklist pc has state");
        let op = &f.code[pc];

        macro_rules! pop {
            () => {
                match st.stack.pop() {
                    Some(v) => v,
                    None => {
                        return Err(vec![Diag::error(
                            "V003",
                            fi,
                            f,
                            pc,
                            format!("stack underflow at `{op:?}`"),
                        )])
                    }
                }
            };
        }

        match *op {
            Op::Const(i) => {
                st.stack.push(AbsVal::of_kind(SumKind::of(&p.consts[i as usize])));
            }
            Op::LoadLocal(i) => {
                let v = st.locals[i as usize].clone();
                st.stack.push(v);
            }
            Op::StoreLocal(i) => {
                let v = pop!();
                st.locals[i as usize] = v;
            }
            Op::LoadNode(i) => {
                st.stack.push(AbsVal {
                    kind: SumKind::Top,
                    taint: Taint::from([(i, 0)]),
                    via_call: false,
                });
            }
            Op::StoreNode(i) => {
                let v = pop!();
                let flags = v.taint.get(&i).copied().unwrap_or(0);
                if flags & CROSSED != 0 {
                    stale_writes.insert((pc, i));
                } else if flags & CLOBBERED != 0 {
                    clobbered_writes.insert((pc, i));
                }
                st.writes.insert(i);
            }
            Op::LoadNet(_) => st.stack.push(AbsVal::top()),
            Op::Dup => {
                let v = st.stack.last().cloned();
                match v {
                    Some(v) => st.stack.push(v),
                    None => {
                        return Err(vec![Diag::error(
                            "V003",
                            fi,
                            f,
                            pc,
                            "stack underflow at `Dup`".into(),
                        )])
                    }
                }
            }
            Op::Pop => {
                pop!();
            }
            Op::Add => {
                let b = pop!();
                let a = pop!();
                let kind = match (a.kind, b.kind) {
                    (SumKind::Str, _) | (_, SumKind::Str) => SumKind::Str,
                    (SumKind::Int, SumKind::Int) => SumKind::Int,
                    (SumKind::Int | SumKind::Float, SumKind::Int | SumKind::Float) => {
                        SumKind::Float
                    }
                    _ => SumKind::Top,
                };
                st.stack.push(AbsVal {
                    kind,
                    taint: union(&a.taint, &b.taint),
                    via_call: a.via_call || b.via_call,
                });
            }
            Op::Sub | Op::Mul | Op::Div | Op::Mod => {
                let b = pop!();
                let a = pop!();
                let kind = match (a.kind, b.kind) {
                    (SumKind::Int, SumKind::Int) => SumKind::Int,
                    (SumKind::Int | SumKind::Float, SumKind::Int | SumKind::Float) => {
                        SumKind::Float
                    }
                    _ => SumKind::Top,
                };
                st.stack.push(AbsVal {
                    kind,
                    taint: union(&a.taint, &b.taint),
                    via_call: a.via_call || b.via_call,
                });
            }
            Op::Neg => {
                let a = pop!();
                let kind = match a.kind {
                    SumKind::Int => SumKind::Int,
                    SumKind::Float | SumKind::Bool => SumKind::Float,
                    _ => SumKind::Top,
                };
                st.stack.push(AbsVal { kind, taint: a.taint, via_call: a.via_call });
            }
            Op::Not => {
                let a = pop!();
                st.stack.push(AbsVal { kind: SumKind::Bool, taint: a.taint, via_call: false });
            }
            Op::Eq | Op::Ne | Op::Lt | Op::Le | Op::Gt | Op::Ge => {
                let b = pop!();
                let a = pop!();
                st.stack.push(AbsVal {
                    kind: SumKind::Bool,
                    taint: union(&a.taint, &b.taint),
                    via_call: false,
                });
            }
            Op::Jump(_) => {}
            Op::JumpIfFalse(_) => {
                pop!();
            }
            Op::JumpIfTruePeek(_) | Op::JumpIfFalsePeek(_) => {
                if st.stack.is_empty() {
                    return Err(vec![Diag::error(
                        "V003",
                        fi,
                        f,
                        pc,
                        "stack underflow at conditional peek".into(),
                    )]);
                }
            }
            Op::Call { f: callee, argc } => {
                let mut taint = Taint::new();
                for _ in 0..argc {
                    let v = pop!();
                    taint = union(&taint, &v.taint);
                }
                if yielders.contains(&(callee as usize)) {
                    // The callee can hop/create/sched: everything we
                    // still hold crosses a yield inside it.
                    st.cross_yield();
                    for flags in taint.values_mut() {
                        *flags |= CROSSED;
                    }
                }
                // Return-value taint is dropped deliberately: carrying
                // the union of argument taints would flag fresh values
                // computed by helpers. Under-approximate instead.
                let _ = taint;
                let cs = &funcs[callee as usize];
                // Held values read from a node variable the callee may
                // write are now stale: writing them back clobbers the
                // callee's update (N302).
                st.cross_writer(&cs.node_writes);
                st.writes.extend(&cs.node_must_writes);
                st.navigate(cs.hop);
                st.stack.push(AbsVal { kind: cs.ret_kind, taint: Taint::new(), via_call: true });
            }
            Op::CallNative { argc, .. } => {
                for _ in 0..argc {
                    pop!();
                }
                st.stack.push(AbsVal::top());
            }
            Op::Ret => {
                let v = pop!();
                exit(&st.writes, Some(v.kind));
            }
            Op::Hop(i) | Op::Delete(i) => {
                let spec = &p.hop_specs[i as usize];
                // Pushed ln-then-ll; popped in reverse.
                let ll = if spec.ll == LinkPat::Expr {
                    let v = pop!();
                    Some((v.kind, v.via_call))
                } else {
                    None
                };
                let ln = if spec.ln == NodePat::Expr {
                    let v = pop!();
                    Some((v.kind, v.via_call))
                } else {
                    None
                };
                let e = hop_operands.entry(pc).or_insert((ln, ll));
                e.0 = joined(e.0, ln);
                e.1 = joined(e.1, ll);
                st.cross_yield();
                st.navigate(HopBehavior::AtMostOnce);
            }
            Op::Create(i) => {
                let spec = &p.create_specs[i as usize];
                for _ in 0..spec.operand_count() {
                    pop!();
                }
                st.cross_yield();
            }
            Op::SchedAbs | Op::SchedDlt => {
                pop!();
                st.cross_yield();
            }
            Op::Halt => exit(&st.writes, None),
            Op::MakeArr => {
                let default = pop!();
                let _n = pop!();
                st.stack.push(AbsVal { kind: SumKind::Arr, taint: default.taint, via_call: false });
            }
            Op::IndexGet => {
                let _idx = pop!();
                let arr = pop!();
                st.stack.push(AbsVal { kind: SumKind::Top, taint: arr.taint, via_call: false });
            }
            Op::IndexSet => {
                let value = pop!();
                let _idx = pop!();
                let arr = pop!();
                st.stack.push(AbsVal {
                    kind: SumKind::Arr,
                    taint: union(&arr.taint, &value.taint),
                    via_call: false,
                });
            }
        }

        if st.stack.len() > MAX_STACK {
            return Err(vec![Diag::error(
                "V012",
                fi,
                f,
                pc,
                format!("operand stack depth {} exceeds the bound of {MAX_STACK}", st.stack.len()),
            )]);
        }
        max_stack = max_stack.max(st.stack.len());
        hop = hop.max(st.hops);

        for succ in crate::cfg::successors(&f.code, pc) {
            if succ == len {
                exit(&st.writes, Some(SumKind::Null)); // implicit return NULL
                continue;
            }
            let merged = match &states[succ] {
                None => st.clone(),
                Some(prev) => match prev.join(&st) {
                    Some(m) => m,
                    None => {
                        return Err(vec![Diag::error(
                            "V004",
                            fi,
                            f,
                            succ,
                            format!(
                                "inconsistent stack depth at merge point: {} vs {}",
                                prev.stack.len(),
                                st.stack.len()
                            ),
                        )])
                    }
                },
            };
            if states[succ].as_ref() != Some(&merged) {
                states[succ] = Some(merged);
                work.push(succ);
            }
        }
    }

    let var_name = |name_idx: u16| match &p.consts[name_idx as usize] {
        Value::Str(s) => s.to_string(),
        other => other.type_name().to_string(),
    };
    let mut lints: Vec<Diag> = stale_writes
        .iter()
        .map(|&(pc, name_idx)| {
            let name = var_name(name_idx);
            Diag::warning(
                "N301",
                fi,
                f,
                pc,
                format!(
                    "node variable `{name}` is written with a value read before a yield — \
                     updates made by other messengers in between are lost (re-read \
                     `{name}` after arriving)"
                ),
            )
        })
        .collect();
    lints.extend(
        clobbered_writes
            .iter()
            // A write that is both stale and clobbered reports as N301.
            .filter(|k| !stale_writes.contains(k))
            .map(|&(pc, name_idx)| {
                let name = var_name(name_idx);
                Diag::warning(
                    "N302",
                    fi,
                    f,
                    pc,
                    format!(
                        "node variable `{name}` is written with a value read before a call \
                         to a function that also writes `{name}` — the callee's update is \
                         lost (re-read `{name}` after the call)"
                    ),
                )
            }),
    );

    Ok(Flow {
        reach,
        max_stack,
        hop_operands,
        lints,
        ret_kind: ret_kind.unwrap_or(SumKind::Top),
        hop,
        must_writes: must_writes.unwrap_or_default(),
    })
}

fn joined(a: HopOp, b: HopOp) -> HopOp {
    match (a, b) {
        (Some((xk, xv)), Some((yk, yv))) => Some((xk.join(yk), xv || yv)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// Function indices that can yield (hop/create/delete/sched), directly
/// or through calls — transitive closure over the call graph. Syntactic
/// on purpose: unlike a summary's reachability-based `hop`, it counts
/// an unreachable hop too.
pub(crate) fn may_yield(p: &Program) -> BTreeSet<usize> {
    let mut set: BTreeSet<usize> = BTreeSet::new();
    for (i, f) in p.funcs.iter().enumerate() {
        if f.code.iter().any(|op| {
            matches!(op, Op::Hop(_) | Op::Create(_) | Op::Delete(_) | Op::SchedAbs | Op::SchedDlt)
        }) {
            set.insert(i);
        }
    }
    loop {
        let mut grew = false;
        for (i, f) in p.funcs.iter().enumerate() {
            if set.contains(&i) {
                continue;
            }
            let calls_yielder = f.code.iter().any(
                |op| matches!(op, Op::Call { f: callee, .. } if set.contains(&(*callee as usize))),
            );
            if calls_yielder {
                set.insert(i);
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    set
}

//! Bottom-up interprocedural effect summaries.
//!
//! The analyzer's one pass ([`crate::analyze`]) walks the call graph's
//! SCCs in callees-first order (see [`crate::callgraph`]). Every member
//! of an SCC first gets the *conservative* summary: may-sets unioned
//! over the component and its callees, must-facts and bounds dropped.
//! A recursive SCC keeps it — its members are interpreted against it. A
//! non-recursive function that verifies is then *sharpened* with the
//! facts its own abstract interpretation proves, against callee
//! summaries that are already final.
//!
//! Summaries are *total*: a function that fails verification keeps its
//! conservative summary, which reads nothing the structural check has
//! not vouched for, because `analyze` (and so `msgr check`) summarizes
//! programs the verifier rejects. The daemons only consume summaries of
//! verified programs.

use msgr_vm::{FnSummary, Function, HopBehavior, Op, Program, SumKind, SummaryTable};

use crate::absint::Flow;
use crate::callgraph::CallGraph;
use crate::cfg;

/// Compute effect summaries for every function in `p`.
pub fn summarize(p: &Program) -> SummaryTable {
    summarize_with_graph(p).0
}

/// Like [`summarize`], but also returns the call graph it was computed
/// over (the unbounded-recursion lint wants both).
pub fn summarize_with_graph(p: &Program) -> (SummaryTable, CallGraph) {
    let (report, cg) = crate::run(p);
    (report.summaries, cg)
}

/// Direct (intra-function) effects of `f`, before callee propagation.
fn direct_effects(f: &Function, s: &mut FnSummary) {
    for op in &f.code {
        match *op {
            Op::Create(_) => s.may_create = true,
            Op::SchedAbs | Op::SchedDlt => s.may_sched = true,
            Op::Halt => s.may_halt = true,
            Op::CallNative { .. } => s.may_native = true,
            Op::LoadNode(i) => {
                s.node_reads.insert(i);
            }
            Op::StoreNode(i) => {
                s.node_writes.insert(i);
            }
            _ => {}
        }
    }
}

/// Fold a callee's summary into the caller's may-facts.
fn absorb_callee(s: &mut FnSummary, callee: &FnSummary) {
    s.may_create |= callee.may_create;
    s.may_sched |= callee.may_sched;
    s.may_halt |= callee.may_halt;
    s.may_native |= callee.may_native;
    s.node_reads.extend(callee.node_reads.iter().copied());
    s.node_writes.extend(callee.node_writes.iter().copied());
}

/// The joint summary of every member of `scc`, from syntax alone:
/// may-facts are unioned across the members (each can reach every
/// other) and their callees outside `scc` (final already, in Tarjan
/// order), must-facts and bounds are dropped, the return kind is ⊤,
/// and hop behavior collapses to either hop-free (nothing in or below
/// the component navigates) or may-navigate — at-most-once cannot
/// survive a cycle.
pub(crate) fn conservative(p: &Program, cg: &CallGraph, scc: &[u16], funcs: &mut [FnSummary]) {
    let mut joint = FnSummary::default();
    let mut navigates = false;
    for &m in scc {
        let f = &p.funcs[m as usize];
        direct_effects(f, &mut joint);
        navigates |= f.code.iter().any(|op| matches!(op, Op::Hop(_) | Op::Delete(_)));
        for &c in cg.callees[m as usize].iter().filter(|c| !scc.contains(c)) {
            absorb_callee(&mut joint, &funcs[c as usize]);
            navigates |= funcs[c as usize].hop != HopBehavior::HopFree;
        }
    }
    joint.hop = if navigates { HopBehavior::MayNavigate } else { HopBehavior::HopFree };
    joint.ret_kind = SumKind::Top;
    for &m in scc {
        let mut s = joint.clone();
        s.recursive = cg.recursive[m as usize];
        s.calls = cg.callees[m as usize].clone();
        funcs[m as usize] = s;
    }
}

/// Sharpen the conservative summary of non-recursive function `i`,
/// whose callees' summaries are final, with what its verified `flow`
/// proves: navigation, must-writes and return kind read off the
/// fixpoint, and the ops bound of its reachable code.
pub(crate) fn sharpen(p: &Program, i: usize, flow: &Flow, funcs: &mut [FnSummary]) {
    let f = &p.funcs[i];
    let ops_bound = ops_bound(f, &flow.reach, |c| funcs[c as usize].ops_bound);
    let s = &mut funcs[i];
    s.hop = flow.hop;
    s.node_must_writes = flow.must_writes.clone();
    s.ret_kind = flow.ret_kind;
    s.ops_bound = ops_bound;
}

// --- ops bound ------------------------------------------------------------

/// Upper bound on ops charged by one complete call: the longest path
/// through the reachable CFG, with `Call` costing `1 + callee bound`.
/// `None` on any cycle or unbounded callee.
fn ops_bound(f: &Function, reach: &[bool], callee: impl Fn(u16) -> Option<u64>) -> Option<u64> {
    let len = f.code.len();
    let succs = |pc| cfg::successors(&f.code, pc).into_iter().filter(move |&s| s < len);
    // Kahn topological sort over the reachable subgraph; incomplete ⇒
    // cycle ⇒ unbounded.
    let mut indeg = vec![0usize; len];
    for pc in (0..len).filter(|&pc| reach[pc]) {
        for s in succs(pc) {
            indeg[s] += 1;
        }
    }
    let mut order = Vec::with_capacity(len);
    let mut ready: Vec<usize> = (0..len).filter(|&pc| reach[pc] && indeg[pc] == 0).collect();
    while let Some(pc) = ready.pop() {
        order.push(pc);
        for s in succs(pc) {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                ready.push(s);
            }
        }
    }
    if order.len() != reach.iter().filter(|&&r| r).count() {
        return None; // cycle
    }
    // Longest path, in reverse topological order.
    let mut best = vec![0u64; len];
    for &pc in order.iter().rev() {
        let cost = match f.code[pc] {
            Op::Call { f: c, .. } => 1u64.checked_add(callee(c)?)?,
            _ => 1,
        };
        best[pc] = cost.checked_add(succs(pc).map(|s| best[s]).max().unwrap_or(0))?;
    }
    Some(best.first().copied().unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use msgr_vm::{Builder, HopSpec, Value};
    use std::collections::BTreeSet;

    fn call(f: u16) -> Op {
        Op::Call { f, argc: 0 }
    }

    #[test]
    fn straight_line_leaf_gets_ops_bound_and_ret_kind() {
        let mut b = Builder::new();
        let two = b.constant(Value::Int(2));
        let three = b.constant(Value::Int(3));
        b.function("add", 0, 0, vec![Op::Const(two), Op::Const(three), Op::Add, Op::Ret]);
        let p = b.finish(msgr_vm::FuncId(0));
        let t = summarize(&p);
        let s = &t.funcs[0];
        assert_eq!(s.ops_bound, Some(4));
        assert_eq!(s.ret_kind, SumKind::Int);
        assert_eq!(s.hop, HopBehavior::HopFree);
        assert!(s.is_pure());
        assert!(!s.recursive);
    }

    #[test]
    fn fall_off_the_end_returns_null_and_charges_all_ops() {
        let mut b = Builder::new();
        let one = b.constant(Value::Int(1));
        b.function("f", 0, 0, vec![Op::Const(one), Op::Pop]);
        let p = b.finish(msgr_vm::FuncId(0));
        let s = &summarize(&p).funcs[0];
        assert_eq!(s.ops_bound, Some(2));
        assert_eq!(s.ret_kind, SumKind::Null);
    }

    #[test]
    fn hop_counts_saturate_through_calls() {
        let mut b = Builder::new();
        let spec = b.hop_spec(HopSpec::default());
        // hopper: hops exactly once, then falls off the end.
        b.function("hopper", 0, 0, vec![Op::Hop(spec)]);
        b.function("twice", 0, 0, vec![call(0), Op::Pop, call(0), Op::Pop]);
        b.function("once", 0, 0, vec![call(0), Op::Pop]);
        let p = b.finish(msgr_vm::FuncId(1));
        let t = summarize(&p);
        assert_eq!(t.funcs[0].hop, HopBehavior::AtMostOnce);
        assert_eq!(t.funcs[1].hop, HopBehavior::MayNavigate);
        assert_eq!(t.funcs[2].hop, HopBehavior::AtMostOnce);
    }

    #[test]
    fn hop_in_a_loop_is_may_navigate() {
        let mut b = Builder::new();
        let spec = b.hop_spec(HopSpec::default());
        // 0: Hop, 1: Jump back to 0.
        b.function("wander", 0, 0, vec![Op::Hop(spec), Op::Jump(-2)]);
        let p = b.finish(msgr_vm::FuncId(0));
        let s = &summarize(&p).funcs[0];
        assert_eq!(s.hop, HopBehavior::MayNavigate);
        assert_eq!(s.ops_bound, None);
    }

    #[test]
    fn node_must_writes_intersect_over_branches() {
        let mut b = Builder::new();
        let t = b.constant(Value::Bool(true));
        let va = b.constant(Value::str("a"));
        let vb = b.constant(Value::str("b"));
        let one = b.constant(Value::Int(1));
        // if (cond) { a = 1 } ; b = 1 ; return 1
        b.function(
            "f",
            0,
            0,
            vec![
                Op::Const(t),
                Op::JumpIfFalse(2), // -> pc 4
                Op::Const(one),
                Op::StoreNode(va), // only on the taken branch
                Op::Const(one),
                Op::StoreNode(vb), // on every path
                Op::Const(one),
                Op::Ret,
            ],
        );
        let p = b.finish(msgr_vm::FuncId(0));
        let s = &summarize(&p).funcs[0];
        assert_eq!(s.node_writes, BTreeSet::from([va, vb]));
        assert_eq!(s.node_must_writes, BTreeSet::from([vb]));
    }

    #[test]
    fn callee_effects_propagate_to_callers() {
        let mut b = Builder::new();
        let v = b.constant(Value::str("x"));
        let one = b.constant(Value::Int(1));
        b.function("writer", 0, 0, vec![Op::Const(one), Op::StoreNode(v), Op::Const(one), Op::Ret]);
        b.function("caller", 0, 0, vec![call(0), Op::Ret]);
        let p = b.finish(msgr_vm::FuncId(1));
        let t = summarize(&p);
        assert_eq!(t.funcs[1].node_writes, BTreeSet::from([v]));
        assert_eq!(t.funcs[1].node_must_writes, BTreeSet::from([v]));
        assert_eq!(t.funcs[1].ret_kind, SumKind::Int);
        assert_eq!(t.funcs[1].ops_bound, Some(2 + 4));
        assert!(!t.node_write_free());
    }

    #[test]
    fn recursion_is_flagged_and_bounds_dropped() {
        let mut b = Builder::new();
        b.function("even", 0, 0, vec![call(1), Op::Ret]);
        b.function("odd", 0, 0, vec![call(0), Op::Ret]);
        let p = b.finish(msgr_vm::FuncId(0));
        let t = summarize(&p);
        for s in &t.funcs {
            assert!(s.recursive);
            assert_eq!(s.ops_bound, None);
            assert_eq!(s.ret_kind, SumKind::Top);
            assert_eq!(s.hop, HopBehavior::HopFree);
        }
    }

    #[test]
    fn counted_while_loop_is_pure_and_unbounded() {
        let mut b = Builder::new();
        let hundred = b.constant(Value::Int(100));
        let one = b.constant(Value::Int(1));
        // i (slot 0): while (i < 100) { i = i + 1 } return i
        b.function(
            "count",
            0,
            1,
            vec![
                Op::LoadLocal(0),   // 0  cond
                Op::Const(hundred), // 1
                Op::Lt,             // 2
                Op::JumpIfFalse(5), // 3  -> pc 9
                Op::LoadLocal(0),   // 4  body
                Op::Const(one),     // 5
                Op::Add,            // 6
                Op::StoreLocal(0),  // 7
                Op::Jump(-9),       // 8  -> pc 0
                Op::LoadLocal(0),   // 9
                Op::Ret,            // 10
            ],
        );
        let p = b.finish(msgr_vm::FuncId(0));
        let s = &summarize(&p).funcs[0];
        assert_eq!(s.ops_bound, None); // loop: unbounded ops
        assert!(s.is_pure());
    }

    #[test]
    fn a_faulting_loop_is_still_pure() {
        let mut b = Builder::new();
        let hundred = b.constant(Value::Int(100));
        let one = b.constant(Value::Int(1));
        b.function(
            "count",
            0,
            1,
            vec![
                Op::LoadLocal(0),
                Op::Const(hundred),
                Op::Lt,
                Op::JumpIfFalse(5),
                Op::LoadLocal(0),
                Op::Const(one),
                Op::Div, // may fault, but a fault is no effect
                Op::StoreLocal(0),
                Op::Jump(-9),
                Op::LoadLocal(0),
                Op::Ret,
            ],
        );
        let p = b.finish(msgr_vm::FuncId(0));
        let s = &summarize(&p).funcs[0];
        assert!(s.is_pure());
        assert_eq!(s.ops_bound, None);
    }

    /// `if (…) { … } else { }` compiles its empty else to a `Jump` to
    /// the next instruction: a fall-through, which every fact must
    /// follow.
    #[test]
    fn jump_to_the_next_instruction_falls_through() {
        let summary = |src: &str| summarize(&msgr_lang::compile(src).unwrap()).funcs[0].clone();
        let s =
            summary(r#"main() { int x; if (x < 1) { hop(ll = "a"); } else { } hop(ll = "b"); }"#);
        assert_eq!(s.hop, HopBehavior::MayNavigate);
        let s = summary(r#"f() { int x; x = 1; if (x < 1) { x = "s"; } else { } return x; }"#);
        assert_eq!(s.ret_kind, SumKind::Top);
        let s = summary("main() { int x; if (x < 1) { x = 1; } else { } x = 2; }");
        assert_eq!(s.ops_bound, Some(11));
    }

    #[test]
    fn a_function_that_fails_verification_keeps_the_conservative_summary() {
        let mut b = Builder::new();
        let spec = b.hop_spec(HopSpec::default());
        let v = b.constant(Value::str("x"));
        // Underflows at pc 0 (V003): nothing after it is interpreted.
        b.function("broken", 0, 0, vec![Op::Pop, Op::Hop(spec), Op::LoadNode(v), Op::StoreNode(v)]);
        b.function("caller", 0, 0, vec![call(0), Op::Ret]);
        let p = b.finish(msgr_vm::FuncId(1));
        let t = summarize(&p);
        let s = &t.funcs[0];
        assert_eq!(s.hop, HopBehavior::MayNavigate);
        assert_eq!(s.node_writes, BTreeSet::from([v]));
        assert!(s.node_must_writes.is_empty());
        assert_eq!((s.ret_kind, s.ops_bound), (SumKind::Top, None));
        assert!(!s.recursive);
        // The caller verifies, and is summarized against that.
        assert_eq!(t.funcs[1].hop, HopBehavior::MayNavigate);
        assert_eq!(t.funcs[1].ret_kind, SumKind::Top);
    }

    #[test]
    fn native_calls_poison_write_freedom() {
        let mut b = Builder::new();
        let name = b.constant(Value::str("M_rand"));
        b.function("f", 0, 0, vec![Op::CallNative { name, argc: 0 }, Op::Ret]);
        let p = b.finish(msgr_vm::FuncId(0));
        let t = summarize(&p);
        assert!(t.funcs[0].may_native);
        assert!(!t.node_write_free());
    }
}

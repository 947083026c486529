//! Bottom-up interprocedural effect summaries.
//!
//! A [`FnSummary`] is the analyzer's whole-program verdict about one
//! function: how it navigates, which node variables it writes, and the
//! kind of value it returns. The lints read them, and a caller is
//! interpreted against its callees' summaries; nothing outside this
//! crate reads them at run time.
//!
//! The analyzer's one pass ([`crate::analyze`]) walks the call graph's
//! SCCs in callees-first order (see [`crate::callgraph`]). Every member
//! of an SCC first gets the *conservative* summary: writes unioned over
//! the component and its callees, must-writes dropped, the return kind
//! ⊤. A recursive SCC keeps it — its members are interpreted against
//! it. A non-recursive function that verifies is then *sharpened* with
//! the facts its own abstract interpretation proves, against callee
//! summaries that are already final.
//!
//! Summaries are *total*: a function that fails verification keeps its
//! conservative summary, which reads nothing the structural check has
//! not vouched for, because `analyze` (and so `msgr check`) summarizes
//! programs the verifier rejects.

use std::collections::BTreeSet;

use msgr_vm::{Op, Program, Value};

use crate::absint::Flow;
use crate::callgraph::CallGraph;

/// How often a function may navigate (`hop`/`delete`), including
/// everything it transitively calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum HopBehavior {
    /// Provably never navigates.
    #[default]
    HopFree,
    /// Navigates at most once per call.
    AtMostOnce,
    /// May navigate any number of times.
    MayNavigate,
}

/// The flat value-kind lattice: the kind the abstract interpreter
/// tracks for every stack slot and local, and the kind a summary
/// records for a function's return value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum SumKind {
    /// Unknown / any value.
    #[default]
    Top,
    /// Always `NULL`.
    Null,
    /// Always a boolean.
    Bool,
    /// Always an integer.
    Int,
    /// Always a float.
    Float,
    /// Always a string.
    Str,
    /// Always a matrix block.
    Mat,
    /// Always a blob.
    Blob,
    /// Always an array.
    Arr,
    /// Always a link instance.
    Link,
}

impl SumKind {
    /// The kind of one runtime value.
    pub fn of(v: &Value) -> SumKind {
        match v {
            Value::Null => SumKind::Null,
            Value::Bool(_) => SumKind::Bool,
            Value::Int(_) => SumKind::Int,
            Value::Float(_) => SumKind::Float,
            Value::Str(_) => SumKind::Str,
            Value::Mat(_) => SumKind::Mat,
            Value::Blob(_) => SumKind::Blob,
            Value::Arr(_) => SumKind::Arr,
            Value::Link(_) => SumKind::Link,
        }
    }

    /// Least upper bound on the flat lattice.
    #[must_use]
    pub fn join(self, other: SumKind) -> SumKind {
        if self == other {
            self
        } else {
            SumKind::Top
        }
    }
}

/// The effect summary of one function, covering everything it
/// transitively calls.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FnSummary {
    /// Navigation behavior (hop/delete), transitively.
    pub hop: HopBehavior,
    /// Node variables (constant-pool name indices) that *may* be written.
    pub node_writes: BTreeSet<u16>,
    /// Node variables written on *every* returning path (must-writes).
    pub node_must_writes: BTreeSet<u16>,
    /// Kind of the returned value, joined over all returning paths.
    pub ret_kind: SumKind,
}

/// Per-function summaries for a whole program, parallel to
/// `Program::funcs`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SummaryTable {
    /// One summary per function, same order as `Program::funcs`.
    pub funcs: Vec<FnSummary>,
}

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

/// The joint summary of every member of `scc`, from syntax alone:
/// writes are unioned across the members (each can reach every other)
/// and their callees outside `scc` (final already, in Tarjan order),
/// must-writes are dropped, the return kind is ⊤, and hop behavior
/// collapses to either hop-free (nothing in or below the component
/// navigates) or may-navigate — at-most-once cannot survive a cycle.
pub(crate) fn conservative(p: &Program, cg: &CallGraph, scc: &[u16], funcs: &mut [FnSummary]) {
    let mut joint = FnSummary::default();
    let mut navigates = false;
    for &m in scc {
        for op in &p.funcs[m as usize].code {
            match *op {
                Op::StoreNode(i) => {
                    joint.node_writes.insert(i);
                }
                Op::Hop(_) | Op::Delete(_) => navigates = true,
                _ => {}
            }
        }
        for &c in cg.callees[m as usize].iter().filter(|c| !scc.contains(c)) {
            joint.node_writes.extend(&funcs[c as usize].node_writes);
            navigates |= funcs[c as usize].hop != HopBehavior::HopFree;
        }
    }
    joint.hop = if navigates { HopBehavior::MayNavigate } else { HopBehavior::HopFree };
    for &m in scc {
        funcs[m as usize] = joint.clone();
    }
}

/// Sharpen the conservative summary of non-recursive function `i`,
/// whose callees' summaries are final, with what its verified `flow`
/// proves: navigation, must-writes and return kind read off the
/// fixpoint.
pub(crate) fn sharpen(i: usize, flow: &Flow, funcs: &mut [FnSummary]) {
    let s = &mut funcs[i];
    s.hop = flow.hop;
    s.node_must_writes = flow.must_writes.clone();
    s.ret_kind = flow.ret_kind;
}

#[cfg(test)]
mod tests {
    use super::*;
    use msgr_vm::{Builder, HopSpec};

    fn call(f: u16) -> Op {
        Op::Call { f, argc: 0 }
    }

    #[test]
    fn hop_behavior_orders_by_strength() {
        assert!(HopBehavior::HopFree < HopBehavior::AtMostOnce);
        assert!(HopBehavior::AtMostOnce < HopBehavior::MayNavigate);
    }

    #[test]
    fn kind_join_is_flat() {
        assert_eq!(SumKind::Int.join(SumKind::Int), SumKind::Int);
        assert_eq!(SumKind::Int.join(SumKind::Float), SumKind::Top);
        assert_eq!(SumKind::Top.join(SumKind::Null), SumKind::Top);
    }

    #[test]
    fn straight_line_leaf_returns_its_kind() {
        let mut b = Builder::new();
        let two = b.constant(Value::Int(2));
        let three = b.constant(Value::Int(3));
        b.function("add", 0, 0, vec![Op::Const(two), Op::Const(three), Op::Add, Op::Ret]);
        let p = b.finish(msgr_vm::FuncId(0));
        let s = &summarize(&p).funcs[0];
        assert_eq!(s, &FnSummary { ret_kind: SumKind::Int, ..FnSummary::default() });
    }

    #[test]
    fn fall_off_the_end_returns_null() {
        let mut b = Builder::new();
        let one = b.constant(Value::Int(1));
        b.function("f", 0, 0, vec![Op::Const(one), Op::Pop]);
        let p = b.finish(msgr_vm::FuncId(0));
        assert_eq!(summarize(&p).funcs[0].ret_kind, SumKind::Null);
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
        assert_eq!(summarize(&p).funcs[0].hop, HopBehavior::MayNavigate);
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
    }

    #[test]
    fn recursion_keeps_the_conservative_summary() {
        let mut b = Builder::new();
        let v = b.constant(Value::str("x"));
        let one = b.constant(Value::Int(1));
        b.function("even", 0, 0, vec![Op::Const(one), Op::StoreNode(v), call(1), Op::Ret]);
        b.function("odd", 0, 0, vec![call(0), Op::Ret]);
        let p = b.finish(msgr_vm::FuncId(0));
        let t = summarize(&p);
        for s in &t.funcs {
            // Both may write `x` (each reaches the other); neither must.
            assert_eq!(s.node_writes, BTreeSet::from([v]));
            assert!(s.node_must_writes.is_empty());
            assert_eq!(s.ret_kind, SumKind::Top);
            assert_eq!(s.hop, HopBehavior::HopFree);
        }
    }

    #[test]
    fn loops_that_neither_navigate_nor_write_summarize_as_such() {
        // i (slot 0): while (i < 100) { i = i <op> 1 } return i. Div may
        // fault, but a fault is no effect.
        for op in [Op::Add, Op::Div] {
            let mut b = Builder::new();
            let hundred = b.constant(Value::Int(100));
            let one = b.constant(Value::Int(1));
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
                    op,                 // 6
                    Op::StoreLocal(0),  // 7
                    Op::Jump(-9),       // 8  -> pc 0
                    Op::LoadLocal(0),   // 9
                    Op::Ret,            // 10
                ],
            );
            let p = b.finish(msgr_vm::FuncId(0));
            let s = &summarize(&p).funcs[0];
            assert_eq!(s.hop, HopBehavior::HopFree, "{op:?}");
            assert!(s.node_writes.is_empty(), "{op:?}");
        }
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
        let s = summary("main() { node int v; int x; if (x < 1) { v = 1; } else { } }");
        assert_eq!((s.node_writes.len(), s.node_must_writes.len()), (1, 0));
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
        assert_eq!(s.ret_kind, SumKind::Top);
        // The caller verifies, and is summarized against that.
        assert_eq!(t.funcs[1].hop, HopBehavior::MayNavigate);
        assert_eq!(t.funcs[1].ret_kind, SumKind::Top);
    }
}

//! The whole-program call graph and its strongly connected components.
//!
//! Functions are analyzed bottom-up: callees before callers, with each
//! recursive SCC given one conservative joint summary before its
//! members are interpreted. Tarjan's algorithm emits SCCs in exactly
//! that order — every SCC is emitted after all SCCs it calls into — so
//! [`CallGraph::sccs`] doubles as the analysis schedule.

use std::collections::BTreeSet;

use msgr_vm::{Op, Program};

/// The call graph over a program's function set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallGraph {
    /// Direct callees per function (out-of-range targets are dropped —
    /// the verifier reports those as V007 separately).
    pub callees: Vec<BTreeSet<u16>>,
    /// Strongly connected components in bottom-up (callees-first)
    /// order.
    pub sccs: Vec<Vec<u16>>,
    /// SCC index (into [`CallGraph::sccs`]) per function.
    pub scc_of: Vec<usize>,
    /// Whether a function sits on a call-graph cycle: a multi-function
    /// SCC or a direct self-call.
    pub recursive: Vec<bool>,
}

impl CallGraph {
    /// Build the graph. Total: every function gets a node even when
    /// structurally damaged; only in-range `Call` targets become edges.
    pub fn build(p: &Program) -> CallGraph {
        let n = p.funcs.len();
        let mut callees: Vec<BTreeSet<u16>> = vec![BTreeSet::new(); n];
        for (i, f) in p.funcs.iter().enumerate() {
            for op in &f.code {
                if let Op::Call { f: callee, .. } = *op {
                    if (callee as usize) < n {
                        callees[i].insert(callee);
                    }
                }
            }
        }
        let (sccs, scc_of) = tarjan(&callees);
        let recursive =
            (0..n).map(|i| sccs[scc_of[i]].len() > 1 || callees[i].contains(&(i as u16))).collect();
        CallGraph { callees, sccs, scc_of, recursive }
    }
}

/// Iterative Tarjan SCC; returns components in reverse topological
/// order (callees first) plus the component index of each node.
fn tarjan(adj: &[BTreeSet<u16>]) -> (Vec<Vec<u16>>, Vec<usize>) {
    let n = adj.len();
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut sccs: Vec<Vec<u16>> = Vec::new();
    let mut scc_of = vec![0usize; n];
    let mut next_index = 0usize;
    // Explicit DFS frames: (node, iterator position into its callees).
    let mut frames: Vec<(usize, Vec<usize>, usize)> = Vec::new();
    for start in 0..n {
        if index[start] != UNSET {
            continue;
        }
        frames.push((start, adj[start].iter().map(|&c| c as usize).collect(), 0));
        index[start] = next_index;
        low[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;
        while let Some(&mut (v, ref succs, ref mut at)) = frames.last_mut() {
            if *at < succs.len() {
                let w = succs[*at];
                *at += 1;
                if index[w] == UNSET {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, adj[w].iter().map(|&c| c as usize).collect(), 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            frames.pop();
            if let Some(&mut (parent, _, _)) = frames.last_mut() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] == index[v] {
                let mut comp = Vec::new();
                loop {
                    let w = stack.pop().expect("tarjan stack underflow");
                    on_stack[w] = false;
                    scc_of[w] = sccs.len();
                    comp.push(w as u16);
                    if w == v {
                        break;
                    }
                }
                comp.sort_unstable();
                sccs.push(comp);
            }
        }
    }
    (sccs, scc_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use msgr_vm::{Builder, Value};

    fn call(f: u16) -> Op {
        Op::Call { f, argc: 0 }
    }

    #[test]
    fn sccs_come_out_callees_first() {
        // main -> a -> b, main -> b; b is a leaf.
        let mut b = Builder::new();
        let c = b.constant(Value::Int(1));
        b.function("main", 0, 0, vec![call(1), Op::Pop, call(2), Op::Ret]);
        b.function("a", 0, 0, vec![call(2), Op::Ret]);
        let leaf = b.function("b", 0, 0, vec![Op::Const(c), Op::Ret]);
        let _ = leaf;
        let p = b.finish(msgr_vm::FuncId(0));
        let g = CallGraph::build(&p);
        assert_eq!(g.sccs, vec![vec![2], vec![1], vec![0]]);
        assert_eq!(g.recursive, vec![false, false, false]);
    }

    #[test]
    fn mutual_recursion_forms_one_scc() {
        // even -> odd -> even, plus a self-recursive loner.
        let mut b = Builder::new();
        b.function("even", 0, 0, vec![call(1), Op::Ret]);
        b.function("odd", 0, 0, vec![call(0), Op::Ret]);
        b.function("selfie", 0, 0, vec![call(2), Op::Ret]);
        let p = b.finish(msgr_vm::FuncId(0));
        let g = CallGraph::build(&p);
        assert!(g.sccs.contains(&vec![0, 1]));
        assert_eq!(g.recursive, vec![true, true, true]);
        assert_eq!(g.scc_of[0], g.scc_of[1]);
    }

    #[test]
    fn out_of_range_targets_are_dropped() {
        let mut b = Builder::new();
        b.function("main", 0, 0, vec![call(9), Op::Ret]);
        let p = b.finish(msgr_vm::FuncId(0));
        let g = CallGraph::build(&p);
        assert!(g.callees[0].is_empty());
        assert_eq!(g.recursive, vec![false]);
    }
}

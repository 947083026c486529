//! Navigation lints: warnings about messenger movement that is legal
//! bytecode but almost certainly a logic error.

use msgr_vm::{Function, Op, Program};

use crate::absint::Flow;
use crate::callgraph::CallGraph;
use crate::summary::SumKind;
use crate::{cfg, Diag};

/// Kinds that can never name a logical node or link, whatever the
/// daemon's network looks like. `Null` is excluded for links (a NULL
/// link operand means "unnamed" at runtime) and kept conservative for
/// nodes; numeric and string kinds all potentially match.
fn never_a_name(k: SumKind) -> bool {
    matches!(k, SumKind::Bool | SumKind::Mat | SumKind::Blob | SumKind::Arr)
}

pub(crate) fn navigation(p: &Program, fi: usize, f: &Function, flow: &Flow, out: &mut Vec<Diag>) {
    unreachable_code(fi, f, flow, out);
    create_all_in_loop(p, fi, f, flow, out);
    hop_never_matches(fi, f, flow, out);
    dead_node_writes(p, fi, f, flow, out);
}

/// N201: instructions no path reaches. The compiler itself plants a
/// few dead `Const`/`Pop`/`Jump` ops after `terminate()` and loop
/// back-edges; runs made only of those are exempt.
fn unreachable_code(fi: usize, f: &Function, flow: &Flow, out: &mut Vec<Diag>) {
    let mut pc = 0;
    while pc < f.code.len() {
        if flow.reach[pc] {
            pc += 1;
            continue;
        }
        let start = pc;
        while pc < f.code.len() && !flow.reach[pc] {
            pc += 1;
        }
        let run = &f.code[start..pc];
        let trivial =
            run.iter().all(|op| matches!(op, Op::Const(_) | Op::Pop | Op::Jump(_) | Op::Ret));
        if !trivial {
            out.push(Diag::warning(
                "N201",
                fi,
                f,
                start,
                format!(
                    "unreachable code: {} instruction(s) after a terminating path can never run",
                    pc - start
                ),
            ));
        }
    }
}

/// N202: `create(...; ALL)` on a control-flow cycle — every iteration
/// replicates the messenger to *every* matching daemon, so a loop
/// fans out exponentially.
fn create_all_in_loop(p: &Program, fi: usize, f: &Function, flow: &Flow, out: &mut Vec<Diag>) {
    for (pc, op) in f.code.iter().enumerate() {
        let Op::Create(i) = op else { continue };
        if !flow.reach[pc] || !p.create_specs[*i as usize].all {
            continue;
        }
        if cfg::on_cycle(&f.code, pc) {
            out.push(Diag::warning(
                "N202",
                fi,
                f,
                pc,
                "create(...; ALL) inside a loop: each iteration replicates the messenger \
                 to every matching daemon (exponential fan-out)"
                    .into(),
            ));
        }
    }
}

/// N203 / N401: a `hop`/`delete` destination operand whose static kind
/// can never name a node or link — the messenger silently dies there.
/// When the kind was learned from a callee's return-kind summary the
/// finding is interprocedural and reports as N401.
fn hop_never_matches(fi: usize, f: &Function, flow: &Flow, out: &mut Vec<Diag>) {
    for (&pc, &(ln, ll)) in &flow.hop_operands {
        if let Some((k, via_call)) = ln.filter(|&(k, _)| never_a_name(k) || k == SumKind::Null) {
            let (code, how) =
                if via_call { ("N401", " returned by a called function") } else { ("N203", "") };
            out.push(Diag::warning(
                code,
                fi,
                f,
                pc,
                format!(
                    "hop destination node is always a {k:?}{how} — it can never match a \
                     node name, so the statement matches nothing"
                ),
            ));
        }
        if let Some((k, via_call)) = ll.filter(|&(k, _)| never_a_name(k)) {
            let (code, how) =
                if via_call { ("N401", " returned by a called function") } else { ("N203", "") };
            out.push(Diag::warning(
                code,
                fi,
                f,
                pc,
                format!(
                    "hop destination link is always a {k:?}{how} — it can never match a \
                     link name, so the statement matches nothing"
                ),
            ));
        }
    }
}

/// Ops that may sit between two writes of node variable `var` without
/// making the first write observable: they cannot read `var`, cannot
/// yield, and cannot fault (a fault would end the segment with the
/// first write already committed to the node).
fn invisible_between(op: &Op, var: u16) -> bool {
    match *op {
        Op::LoadNode(j) => j != var,
        Op::Const(_)
        | Op::LoadLocal(_)
        | Op::StoreLocal(_)
        | Op::Dup
        | Op::Pop
        | Op::LoadNet(_)
        | Op::Not
        | Op::Eq
        | Op::Ne => true,
        _ => false,
    }
}

/// N303: two writes to the same node variable with nothing in between
/// that could observe, fault, or branch — the first write is dead.
fn dead_node_writes(p: &Program, fi: usize, f: &Function, flow: &Flow, out: &mut Vec<Diag>) {
    // Any pc that is a jump target could be entered from elsewhere,
    // which would make the "first" write observable on that path.
    let targets = cfg::block_labels(f);
    for (a, op) in f.code.iter().enumerate() {
        let Op::StoreNode(var) = *op else { continue };
        if !flow.reach.get(a).copied().unwrap_or(false) {
            continue;
        }
        let Some(b) = (a + 1..f.code.len()).find(|&pc| !invisible_between(&f.code[pc], var)) else {
            continue;
        };
        if !matches!(f.code[b], Op::StoreNode(v) if v == var) {
            continue;
        }
        if (a + 1..=b).any(|pc| targets.contains_key(&pc)) {
            continue;
        }
        let name = match p.consts.get(var as usize) {
            Some(msgr_vm::Value::Str(s)) => s.to_string(),
            _ => format!("#{var}"),
        };
        out.push(Diag::warning(
            "N303",
            fi,
            f,
            a,
            format!(
                "node variable `{name}` is overwritten at pc {b} before anything can \
                 read it — this write is dead"
            ),
        ));
    }
}

/// N402: a recursive function none of whose SCC members can reach any
/// exit (`return`, `M_exit`, falling off the end) without first calling
/// back into the component — the recursion is provably unbounded and
/// the messenger will only stop when its fuel runs out.
pub(crate) fn unbounded_recursion(p: &Program, cg: &CallGraph, out: &mut Vec<Diag>) {
    let escapes: Vec<bool> =
        (0..p.funcs.len()).map(|i| can_exit_without_scc_call(p, cg, i)).collect();
    for (fi, f) in p.funcs.iter().enumerate() {
        if !cg.recursive[fi] {
            continue;
        }
        // The whole component must be exit-free: a single member that
        // can return bounds the others too.
        let scc = &cg.sccs[cg.scc_of[fi]];
        if scc.iter().any(|&m| escapes[m as usize]) {
            continue;
        }
        let pc = f
            .code
            .iter()
            .position(|op| {
                matches!(*op, Op::Call { f: c, .. }
                    if (c as usize) < p.funcs.len() && cg.scc_of[c as usize] == cg.scc_of[fi])
            })
            .unwrap_or(0);
        out.push(Diag::warning(
            "N402",
            fi,
            f,
            pc,
            format!(
                "every path through `{}` recurses before it can return — the messenger \
                 runs until its fuel is exhausted",
                f.name
            ),
        ));
    }
}

/// Whether function `i` can reach an exit from its entry without
/// executing a call back into its own SCC.
fn can_exit_without_scc_call(p: &Program, cg: &CallGraph, i: usize) -> bool {
    let f = &p.funcs[i];
    let len = f.code.len();
    if len == 0 {
        return true; // falls off the end immediately
    }
    let my_scc = cg.scc_of[i];
    let mut seen = vec![false; len];
    let mut stack = vec![0usize];
    seen[0] = true;
    while let Some(pc) = stack.pop() {
        match f.code[pc] {
            Op::Ret | Op::Halt => return true,
            Op::Call { f: c, .. }
                if (c as usize) < p.funcs.len() && cg.scc_of[c as usize] == my_scc =>
            {
                continue; // swallowed by the recursion
            }
            _ => {}
        }
        for succ in cfg::successors(&f.code, pc) {
            if succ >= len {
                return true; // implicit return NULL
            }
            if !std::mem::replace(&mut seen[succ], true) {
                stack.push(succ);
            }
        }
    }
    false
}

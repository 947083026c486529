//! Control-flow structure of a single function: jump targets,
//! successor edges, and block labels.
//!
//! Offsets in [`Op::Jump`] and friends are relative to the *next*
//! instruction; an absolute target equal to `code.len()` is legal and
//! means "fall off the end" (the implicit `return NULL`).

use std::collections::BTreeMap;

use msgr_vm::{Function, Op};

/// Absolute jump target of `op` at `pc`, or `None` for non-jumps.
/// The result may be out of bounds — the verifier checks that.
pub fn jump_target(pc: usize, op: &Op) -> Option<isize> {
    let off = match *op {
        Op::Jump(o) | Op::JumpIfFalse(o) | Op::JumpIfTruePeek(o) | Op::JumpIfFalsePeek(o) => o,
        _ => return None,
    };
    Some(pc as isize + 1 + off as isize)
}

/// Successor pcs of the instruction at `pc`, each once. A successor
/// equal to `code.len()` is the function exit (implicit return). Total:
/// a jump target outside `0..=code.len()` is not an edge (the verifier
/// reports it as `V002`).
pub fn successors(code: &[Op], pc: usize) -> Vec<usize> {
    let op = &code[pc];
    let mut out = Vec::with_capacity(2);
    if !matches!(op, Op::Ret | Op::Halt | Op::Jump(_)) {
        out.push(pc + 1);
    }
    if let Some(t) = jump_target(pc, op) {
        if (0..=code.len() as isize).contains(&t) && !out.contains(&(t as usize)) {
            out.push(t as usize);
        }
    }
    out
}

/// Map `pc -> label index` for every in-range jump target of `f`, in
/// address order: the `L0:`, `L1:`, … labels printed by the
/// disassembler and referenced by diagnostics.
pub fn block_labels(f: &Function) -> BTreeMap<usize, usize> {
    let mut targets = BTreeMap::new();
    for (pc, op) in f.code.iter().enumerate() {
        if let Some(t) = jump_target(pc, op) {
            if t >= 0 && t <= f.code.len() as isize {
                targets.insert(t as usize, 0);
            }
        }
    }
    for (i, (_, label)) in targets.iter_mut().enumerate() {
        *label = i;
    }
    targets
}

/// True when `pc` lies on a control-flow cycle (can reach itself).
/// Used by the `create(...; ALL)`-in-loop lint.
pub fn on_cycle(code: &[Op], pc: usize) -> bool {
    let len = code.len();
    let mut seen = vec![false; len + 1];
    let mut stack: Vec<usize> = successors(code, pc).into_iter().filter(|&s| s < len).collect();
    while let Some(s) = stack.pop() {
        if s == pc {
            return true;
        }
        if std::mem::replace(&mut seen[s], true) {
            continue;
        }
        stack.extend(successors(code, s).into_iter().filter(|&n| n < len));
    }
    false
}

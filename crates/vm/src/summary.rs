//! Interprocedural effect summaries.
//!
//! A [`FnSummary`] is the analyzer's whole-program verdict about one
//! function: how it navigates, which node variables it touches, whether
//! it calls natives, and a conservative bound on the ops one call may
//! charge. The types live here — not in `msgr-analyze` — because the
//! daemons consume them and the VM crate must not depend on the analyzer
//! crate; `msgr-analyze::summarize` produces them.
//!
//! Summaries are read by the lints and by the daemons, which skip the
//! Time-Warp snapshot of a program that provably writes no node variable
//! ([`SummaryTable::node_write_free`]). The closure compiler reads none:
//! it derives its own licenses from the bytecode, so a wrong summary can
//! never become a miscompile. Summaries are keyed by
//! [`crate::ProgramId`] *outside* the program body, so attaching them
//! never changes a content hash.

use std::collections::BTreeSet;

use crate::value::Value;

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

/// The flat value-kind lattice: the kind the analyzer's abstract
/// interpreter tracks for every stack slot and local, and the kind a
/// summary records for a function's return value.
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
    /// May execute a `create` statement.
    pub may_create: bool,
    /// May suspend on virtual time (`M_sched_time_*`).
    pub may_sched: bool,
    /// May terminate the messenger (`M_exit`).
    pub may_halt: bool,
    /// May call a native function (unknown effects).
    pub may_native: bool,
    /// Participates in a call-graph cycle (direct or mutual recursion).
    pub recursive: bool,
    /// Node variables (constant-pool name indices) that *may* be read.
    pub node_reads: BTreeSet<u16>,
    /// Node variables that *may* be written.
    pub node_writes: BTreeSet<u16>,
    /// Node variables written on *every* returning path (must-writes).
    pub node_must_writes: BTreeSet<u16>,
    /// Direct callees (function indices).
    pub calls: BTreeSet<u16>,
    /// Upper bound on ops charged by one complete call, when the
    /// function (with its callees) is provably acyclic. `None` when
    /// unbounded or unknown.
    pub ops_bound: Option<u64>,
    /// Kind of the returned value, joined over all returning paths.
    pub ret_kind: SumKind,
}

impl FnSummary {
    /// Whether a call can complete without any observable effect outside
    /// the frame: no navigation, no scheduling, no node/native traffic.
    pub fn is_pure(&self) -> bool {
        self.hop == HopBehavior::HopFree
            && !self.may_create
            && !self.may_sched
            && !self.may_halt
            && !self.may_native
            && self.node_reads.is_empty()
            && self.node_writes.is_empty()
    }
}

/// Per-function summaries for a whole program, parallel to
/// `Program::funcs`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SummaryTable {
    /// One summary per function, same order as `Program::funcs`.
    pub funcs: Vec<FnSummary>,
}

impl SummaryTable {
    /// Whether no function in the program can write a node variable —
    /// directly or through a native call (natives may write). Programs
    /// with this property cannot change `node.vars`, so the Time-Warp
    /// snapshot taken before an optimistic segment is provably
    /// redundant.
    pub fn node_write_free(&self) -> bool {
        self.funcs.iter().all(|s| s.node_writes.is_empty() && !s.may_native)
    }

    /// Count of functions proven hop-free.
    pub fn hop_free_funcs(&self) -> u64 {
        self.funcs.iter().filter(|s| s.hop == HopBehavior::HopFree).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn write_free_requires_no_natives() {
        let mut t = SummaryTable { funcs: vec![FnSummary::default()] };
        assert!(t.node_write_free());
        t.funcs[0].may_native = true;
        assert!(!t.node_write_free());
        t.funcs[0].may_native = false;
        t.funcs[0].node_writes.insert(3);
        assert!(!t.node_write_free());
    }
}

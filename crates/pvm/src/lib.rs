//! # msgr-pvm — the message-passing baseline
//!
//! The paper compares MESSENGERS against PVM 3.3 ("it provides a complete
//! execution environment (an abstract machine), which is much closer to
//! MESSENGERS in its underlying philosophy", §3). This crate is a
//! from-scratch PVM-like library with the pieces the paper's programs
//! use:
//!
//! * **Tasks** — spawned dynamically, identified by [`TaskId`], placed
//!   round-robin over hosts.
//! * **Typed message buffers** ([`Buf`]) — PVM's `pvm_pkint` /
//!   `pvm_upkdouble` pack/unpack discipline. Packing and unpacking are
//!   real copies; that cost (absent in MESSENGERS, whose messenger
//!   variables travel as-is) is one of the paper's key performance
//!   points.
//! * **`send` / `recv` / `mcast`** with tag and source matching, and
//!   dynamic **groups** (`join_group`, `group_tid`) as used by the
//!   matrix-multiplication program of Fig. 9.
//! * **pvmd store-and-forward routing** — PVM 3.3's default message path
//!   (task → local pvmd → remote pvmd → task) pays two extra copies; the
//!   `direct_route` option models `PvmRouteDirect` as an ablation.
//!
//! A program is written once, as [`Task`] state machines, and runs on
//! either of two backends: [`sim`] inside the deterministic cluster
//! simulator with the calibrated cost model (used by every benchmark),
//! [`threads`] on real OS threads, one per task, on the host clock
//! (used by tests that check both backends agree).

#![warn(missing_docs)]

pub mod buf;
pub mod sim;
mod task;
#[cfg(test)]
mod tests;
pub mod threads;

pub use buf::{Buf, UnpackError};
/// Network model selection: the same type as `msgr-core`'s `NetKind`, so
/// the two systems are always compared on the same medium.
pub use msgr_sim::NetKind as PvmNet;
pub use sim::{PvmCostModel, PvmSim, PvmSimConfig};
pub use task::{PvmError, PvmReport, Status, Task, TaskCtx};
pub use threads::PvmThreads;

/// A PVM task identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u32);

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A message tag (PVM `msgtag`).
pub type Tag = i32;

/// A received message: sender, tag, payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Sending task.
    pub from: TaskId,
    /// Message tag.
    pub tag: Tag,
    /// Payload buffer (position reset for unpacking).
    pub buf: Buf,
}

/// Source/tag selector for `recv` (PVM's −1 wildcards become `None`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Recv {
    /// Match only this sender (None = any).
    pub from: Option<TaskId>,
    /// Match only this tag (None = any).
    pub tag: Option<Tag>,
}

impl Recv {
    /// Receive from anyone, any tag.
    pub fn any() -> Self {
        Recv::default()
    }

    /// Receive any message with this tag.
    pub fn tag(tag: Tag) -> Self {
        Recv { from: None, tag: Some(tag) }
    }

    /// Receive from a specific task, any tag.
    pub fn from(from: TaskId) -> Self {
        Recv { from: Some(from), tag: None }
    }

    /// Fully specified.
    pub fn from_tag(from: TaskId, tag: Tag) -> Self {
        Recv { from: Some(from), tag: Some(tag) }
    }

    /// Whether a message satisfies this selector.
    pub fn matches(&self, m: &Message) -> bool {
        self.from.is_none_or(|f| f == m.from) && self.tag.is_none_or(|t| t == m.tag)
    }
}

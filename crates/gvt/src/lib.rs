//! # msgr-gvt — global virtual time
//!
//! §2.2 of the paper: "virtual time is an ordering of dynamically created
//! events … The globally minimal time obtained from this system-wide
//! synchronization, which is referred to as global virtual time (GVT),
//! must be guaranteed to monotonically increase over the entire system."
//!
//! MESSENGERS "supports both a conservative and an optimistic approach";
//! so does this crate:
//!
//! * [`PendingQueue`] — the per-daemon priority queue of suspended
//!   messengers (`M_sched_time_abs` / `M_sched_time_dlt`).
//! * [`protocol`] — a coordinator-based GVT estimation protocol in the
//!   style of Mattern's two-cut algorithm: epochs ("colors") stamped on
//!   every migration, send/receive counting with re-polling until the
//!   previous epoch's messages have all drained, and a late-message
//!   minimum folded into the estimate. The protocol is expressed as pure
//!   state machines over [`protocol::CtrlMsg`] values, so the same code
//!   drives both the simulated cluster (where control traffic pays real
//!   simulated network cost — the paper's "significant communication
//!   overhead") and the threaded runtime.
//! * [`timewarp`] — Time Warp: [`TimeWarp`], the optimistic scheduler a
//!   daemon holds under optimistic virtual time, over per-logical-node
//!   logs ([`TwNode`]) with input logging, state snapshots, straggler
//!   detection, rollback, anti-message generation, and fossil collection.
//!
//! The conservative execution rule is: a suspended messenger with wake
//! time `t` may run once `t <= GVT`. Because every pending wake time is
//! part of the local minimum reported to the coordinator, GVT reaches
//! exactly the global minimum wake time, those messengers run, and the
//! clock advances — the paper's matrix multiplication alternates its
//! `distribute_A` (integer ticks) and `rotate_B` (half ticks) messengers
//! this way.

#![warn(missing_docs)]

pub mod protocol;
pub mod timewarp;

mod queue;

pub use protocol::{Coordinator, CoordinatorAction, CtrlMsg, Participant};
pub use queue::PendingQueue;
pub use timewarp::{Cancel, Rollback, SentRef, TimeWarp, TwEntry, TwNode};

pub use msgr_vm::Vt;

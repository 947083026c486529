//! # msgr-ctrl — the decentralized control plane
//!
//! The paper's daemon network (and our PR 4 failover) trusts two
//! centralized fictions: every daemon shares one membership view, so a
//! deterministic "next alive" successor can restore a dead daemon
//! without coordination; and checkpoints live in one store that
//! recovery is always able to reach. Both break exactly when they are
//! needed — under partitions, message loss, and simultaneous kills.
//!
//! This crate provides the pure state machines that replace them:
//!
//! * [`quorum`] — a minimal single-decree Paxos. Each membership change
//!   (daemon death and the choice of its heir) is one consensus
//!   *instance*; a kill is **proposed** by suspecting heartbeat
//!   observers and only acted on once a majority of the surviving
//!   acceptors accepts, so a wrong failure detector can never cause two
//!   daemons to restore the same victim onto different heirs.
//! * [`gossip`] — anti-entropy push–pull digests (membership epoch,
//!   eviction list, code-registry hash, GVT hint) exchanged on a seeded
//!   random peer schedule, so no daemon depends on a coordinator
//!   broadcast to learn what the cluster already decided.
//!
//! Both message families travel as `Wire::Ctrl` / `Wire::Gossip` frames,
//! whose bytes the core frame codec (`msgr_core::wire`) owns; this crate
//! holds no byte format.
//!
//! Everything here is deterministic and side-effect free: the machines
//! consume messages and return messages, and all randomness is an
//! explicit [`msgr_sim::DetRng`] owned by the caller. That is what lets
//! the 256-case property suites drive them through adversarial
//! drop/dup/reorder schedules and assert agreement and convergence.

#![warn(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(clippy::missing_panics_doc, clippy::must_use_candidate)]

pub mod gossip;
pub mod quorum;

pub use gossip::{pick_peer, Digest};
pub use quorum::{
    ballot, ballot_proposer, ballot_round, Ballot, Decree, InstanceId, PaxosMsg, Quorum, Step,
};

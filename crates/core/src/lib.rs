//! # msgr-core — the MESSENGERS system
//!
//! This crate implements the runtime described in §2 of the paper: "a
//! collection of daemons instantiated on all physical nodes … A daemon's
//! task is to continuously receive Messengers arriving from other
//! daemons, interpret their behaviors … and send them on to their next
//! destinations."
//!
//! ## The three network levels
//!
//! 1. **Physical network** — supplied by a *platform*: either the
//!    deterministic cluster simulator ([`platform::sim`], used for all
//!    benchmarks; see DESIGN.md for the substitution rationale) or real
//!    OS threads connected by channels ([`platform::threads`]).
//! 2. **Daemon network** — a static graph over the daemons
//!    ([`DaemonTopology`]); `create` statements place new logical nodes
//!    by matching destination specifications against it.
//! 3. **Logical network** — application-created nodes and links
//!    ([`logical`]), persistent and external to any messenger: the
//!    paper's "exogenous skeleton".
//!
//! ## Execution model
//!
//! A [`daemon::Daemon`] interprets messengers one at a time
//! (non-preemptive: yield points are only the navigational statements and
//! virtual-time suspensions). A `hop` replicates the messenger's
//! serialized state to every matching link; `create` builds logical
//! nodes/links, possibly on remote daemons, and moves the messenger
//! there; `delete` is a hop that destroys the links it traverses.
//! Suspended messengers wait in a virtual-time queue released by the GVT
//! protocol (`msgr-gvt`), either conservatively (run only at GVT) or
//! optimistically (Time Warp with rollback and anti-messengers).
//!
//! ## Quick start
//!
//! ```
//! use msgr_core::{ClusterConfig, SimCluster};
//! use msgr_vm::Value;
//!
//! let program = msgr_lang::compile(
//!     r#"
//!     main() {
//!         node int visits;
//!         visits = visits + 1;
//!     }
//!     "#,
//! )?;
//! let mut cluster = SimCluster::new(ClusterConfig::new(4));
//! let pid = cluster.register_program(&program);
//! cluster.inject(0, pid, &[])?;
//! let report = cluster.run()?;
//! assert_eq!(cluster.node_var(0, &Value::str("init"), "visits"), Some(Value::Int(1)));
//! assert_eq!(report.clock, msgr_core::Clock::Simulated);
//! assert!(report.seconds >= 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod ckpt;
pub mod codes;
pub mod config;
pub mod daemon;
pub mod ids;
pub mod logical;
pub(crate) mod members;
pub mod platform;
pub mod profiling;
pub mod topology;
pub mod wire;
pub(crate) mod xport;

pub use codes::{CodeCache, RegisterOutcome};
pub use config::{
    ClusterConfig, CostModel, ExecMode, NetKind, RetransmitPolicy, Succession, VtMode,
};
pub use daemon::{Daemon, Effect};
pub use ids::{DaemonId, NodeRef};
pub use msgr_sim::Clock;
pub use platform::sim::SimCluster;
pub use platform::threads::ThreadCluster;
pub use platform::{Cluster, Platform, Report, SimReport, ThreadReport};
pub use topology::{DaemonTopology, LogicalTopology};
pub use wire::Wire;

pub use msgr_trace::{EventKind, Metric, Trace, TraceConfig, TraceEvent};

/// Errors surfaced by cluster operations.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// Injection referenced an unregistered program.
    UnknownProgram,
    /// Injection arguments did not match the entry function, or the
    /// entry cannot be activated at all (a quarantined program whose entry
    /// is missing or has fewer slots than parameters).
    BadInjection(String),
    /// The run did not quiesce within its event budget (livelock or
    /// runaway messenger population).
    Stalled {
        /// Events executed before giving up.
        events: u64,
    },
    /// A configuration problem (e.g. optimistic mode on the threaded
    /// platform).
    Config(String),
    /// A named entity was not found.
    NotFound(String),
    /// A permanently killed daemon cannot be restored: it died together
    /// with every holder of its checkpoint replicas, so its nodes and
    /// messengers are gone.
    CheckpointLost {
        /// The daemon whose state is unrecoverable.
        victim: DaemonId,
        /// Replica holders it had (`ClusterConfig::replication`), all dead.
        replicas: usize,
    },
    /// A permanently killed daemon's surviving checkpoint does not
    /// decode, so its successor cannot adopt it.
    CheckpointDamaged {
        /// The daemon whose checkpoint was read.
        victim: DaemonId,
        /// Why the snapshot was refused.
        reason: String,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::UnknownProgram => write!(f, "program not registered with the cluster"),
            ClusterError::BadInjection(m) => write!(f, "bad injection: {m}"),
            ClusterError::Stalled { events } => {
                write!(f, "cluster failed to quiesce after {events} events")
            }
            ClusterError::Config(m) => write!(f, "configuration error: {m}"),
            ClusterError::NotFound(m) => write!(f, "not found: {m}"),
            ClusterError::CheckpointLost { victim, replicas } => write!(
                f,
                "no surviving checkpoint for daemon {victim}: it died together with all \
                 {replicas} of its replica holder(s); raise ClusterConfig::replication or kill \
                 fewer daemons at once"
            ),
            ClusterError::CheckpointDamaged { victim, reason } => {
                write!(f, "the checkpoint of daemon {victim} is damaged: {reason}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

//! Cluster configuration and the calibrated cost model.
//!
//! The constants are chosen to reflect the paper's 1997 testbed — 110 MHz
//! SPARCstation 5s (the reference CPU, speed 1.0) on a 10 Mbit/s shared
//! Ethernet — so that the *shape* of the evaluation figures reproduces.
//! See `EXPERIMENTS.md` for the calibration discussion.

/// Which network model the simulation platform uses.
pub use msgr_sim::NetKind;
use msgr_sim::{FaultPlan, SimTime, MILLI};

/// Conservative vs optimistic virtual time (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VtMode {
    /// Suspended messengers run only once GVT reaches their wake time.
    #[default]
    Conservative,
    /// Time Warp: run eagerly, roll back on stragglers, cancel with
    /// anti-messengers. Simulation platform only.
    Optimistic,
}

/// Whether daemons run messenger segments with fused loops.
///
/// Both modes run the one interpreter dispatch loop; `Compiled` also
/// enters a program's fused `while` loops at their backedges. They are
/// observationally identical (the differential suite
/// `crates/vm/tests/diff_props.rs` holds them to that), so this knob
/// changes wall-clock throughput only — simulated results, goldens, and
/// traces are bit-identical across modes. Programs are verified and
/// their loops compiled at registration regardless of mode; `Compiled`
/// merely makes the daemons use the loop table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// The paper-era bytecode interpreter (`msgr_vm::interp`), one op
    /// per dispatch.
    #[default]
    Interp,
    /// The same interpreter, entering fused (often typed) `while` loops
    /// at their backedges (`msgr_vm::compile`). The compiler reads only
    /// the bytecode, never the effect summaries.
    Compiled,
}

impl ExecMode {
    /// Parse a CLI/env spelling (`interp` | `compiled`).
    pub fn parse(s: &str) -> Option<ExecMode> {
        match s {
            "interp" => Some(ExecMode::Interp),
            "compiled" => Some(ExecMode::Compiled),
            _ => None,
        }
    }
}

/// CPU-cost constants, in reference nanoseconds (1.0-speed machine).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Interpreting one bytecode operation. The paper's scripts are
    /// interpreted; this is the per-statement overhead that makes
    /// fine-grained Messengers slower than PVM.
    pub per_op_ns: u64,
    /// Fixed daemon cost to dispatch one outgoing migration
    /// (scheduling, headers, system call).
    pub hop_send_ns: u64,
    /// Fixed daemon cost to accept one incoming migration.
    pub hop_recv_ns: u64,
    /// Serializing / deserializing messenger state, per byte. Messenger
    /// variables travel as-is — one copy out, one copy in (§2.1: "there
    /// is no need for copying of data into/out of buffers").
    pub per_byte_copy_ns: u64,
    /// Fixed cost to create a logical node / install a link.
    pub create_node_ns: u64,
    /// Cost to process one GVT control message.
    pub gvt_msg_ns: u64,
    /// Cost to undo one event during a Time-Warp rollback.
    pub rollback_per_event_ns: u64,
    /// Per-migration wire header bytes (routing, ids, epoch).
    pub wire_header_bytes: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            per_op_ns: 2_000,     // ~2 µs/op interpreted on a 110 MHz SS5
            hop_send_ns: 300_000, // 300 µs: destination matching, replication, dispatch
            hop_recv_ns: 220_000, // 220 µs: accept, decode, schedule
            per_byte_copy_ns: 25, // ~40 MB/s memcpy
            create_node_ns: 80_000,
            gvt_msg_ns: 40_000,
            rollback_per_event_ns: 60_000,
            wire_header_bytes: 64,
        }
    }
}

/// How a dead daemon's heir is chosen when recovery is armed.
// Only reader: `benchmark/src/main.rs::provenance`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Succession {
    /// A kill is *proposed* by suspecting observers and acted on only
    /// once a majority of the surviving acceptors accepts the burial
    /// decree (single-decree Paxos, `msgr-ctrl`). A wrong failure
    /// detector can then never cause a split-brain double restore.
    #[default]
    Quorum,
}

/// Retransmission policy of the reliable-delivery layer, active only
/// when the cluster's [`FaultPlan`] can inject faults. Timeouts double on
/// every retry (exponential backoff) up to `max_rto`, with a uniform
/// deterministic jitter drawn per retry so synchronized senders desync.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetransmitPolicy {
    /// Initial retransmission timeout after a frame is first sent. The
    /// default (30 ms) matches PVM 3.3's pvmd ack timeout and sits above
    /// the delivery+ack round trip of a congested shared Ethernet, so a
    /// healthy-but-slow network does not trigger spurious retransmits.
    pub rto: SimTime,
    /// Ceiling for the backed-off timeout.
    pub max_rto: SimTime,
    /// Uniform jitter in `[0, jitter)` added to every armed timeout.
    pub jitter: SimTime,
    /// Send attempts (first transmission included) before the transport
    /// gives up on a frame and reports a fault. Kept high by default:
    /// at 30% loss, 48 attempts fail with probability 0.3^48 ≈ 1e-25,
    /// so chaos runs never abandon a messenger.
    pub max_attempts: u32,
}

impl Default for RetransmitPolicy {
    fn default() -> Self {
        RetransmitPolicy {
            rto: 30 * MILLI,
            max_rto: 240 * MILLI,
            jitter: 2 * MILLI,
            max_attempts: 48,
        }
    }
}

/// Full cluster configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of daemons (= hosts; one daemon per host, as in the paper).
    pub daemons: usize,
    /// Network model (simulation platform).
    pub net: NetKind,
    /// CPU speed of every host relative to the 110 MHz reference
    /// (Fig. 12(b)'s 170 MHz machines ≈ 1.55).
    pub cpu_speed: f64,
    /// Virtual-time mode.
    pub vt_mode: VtMode,
    /// Interval between GVT rounds (simulated time).
    pub gvt_interval: SimTime,
    /// Carry full program code on every migration (the WAVE-style
    /// ablation) instead of relying on the shared code registry.
    pub carry_code: bool,
    /// Cost model (simulation platform).
    pub costs: CostModel,
    /// RNG seed for any randomized choices.
    pub seed: u64,
    /// Event budget before a run is declared stalled.
    pub max_events: u64,
    /// Fuel per execution segment (bytecode ops) before a messenger is
    /// killed as runaway.
    pub segment_fuel: u64,
    /// Fault-injection plan. Defaults to [`FaultPlan::none`]; any active
    /// plan also switches the daemons onto the reliable transport.
    pub faults: FaultPlan,
    /// Retransmission policy used when `faults` is active.
    pub retransmit: RetransmitPolicy,
    /// Flight-recorder tracing. Disabled by default; when enabled every
    /// daemon records typed [`msgr_trace::TraceEvent`]s into a bounded
    /// ring that the platform merges into the run report.
    pub trace: msgr_trace::TraceConfig,
    /// Whether daemons enter fused loops ([`ExecMode::Interp`], which
    /// does not, unless overridden via the `MSGR_EXEC` environment
    /// variable or `msgr run --exec`).
    pub exec: ExecMode,
    /// Recorded in `benchmark/`'s run provenance; nothing in the system
    /// reads it. On by default.
    // Only reader: `benchmark/src/main.rs::provenance`.
    pub analysis: bool,
    /// Hand messenger state over by move on same-daemon hops instead of
    /// encode/decode through the platform loopback. Off by default: the
    /// sim's uniform cost accounting and the reliable transport both
    /// want every hop on the wire path. No platform sets it: today only
    /// the threaded-ring test in `tests/cluster.rs` turns it on.
    pub local_move: bool,
    /// How a victim's heir is chosen when a permanent kill is detected:
    /// by majority decree ([`Succession::Quorum`], the only rule).
    // Only reader: `benchmark/src/main.rs::provenance`.
    pub succession: Succession,
    /// Checkpoint replication factor `k`: every checkpoint version is
    /// pushed to the `k` next-alive successor daemons *before* its
    /// staged effects are released, so recovery survives losing the
    /// victim and `k - 1` of its replica holders at once. Default 1.
    pub replication: usize,
    /// Cost-attribution profiling: per-messenger phase ledgers
    /// (`phase_ledger` trace events) and op-count-triggered VM PC
    /// sampling (`pc_sample` events). Off by default; profiling charges
    /// nothing to the cost model, so simulated results are bit-identical
    /// with it on or off. Requires tracing (platforms enable the
    /// recorder automatically when this is set).
    pub profile: bool,
}

impl ClusterConfig {
    /// A configuration for `daemons` hosts with paper-era defaults. The
    /// one ambient input is `MSGR_EXEC`, which `scripts/ci.sh` uses to
    /// re-run whole suites on the compiled engine.
    ///
    /// # Panics
    ///
    /// Panics if `daemons` is 0 or exceeds `u16::MAX`.
    pub fn new(daemons: usize) -> Self {
        assert!(daemons > 0 && daemons <= u16::MAX as usize, "bad daemon count {daemons}");
        ClusterConfig {
            daemons,
            net: NetKind::Ethernet100,
            cpu_speed: 1.0,
            vt_mode: VtMode::Conservative,
            gvt_interval: 15 * MILLI,
            carry_code: false,
            costs: CostModel::default(),
            seed: 0x5EED,
            max_events: 200_000_000,
            segment_fuel: msgr_vm::interp::DEFAULT_FUEL,
            faults: FaultPlan::none(),
            retransmit: RetransmitPolicy::default(),
            trace: msgr_trace::TraceConfig::default(),
            exec: std::env::var("MSGR_EXEC")
                .ok()
                .and_then(|s| ExecMode::parse(&s))
                .unwrap_or_default(),
            analysis: true,
            local_move: false,
            succession: Succession::default(),
            replication: 1,
            profile: false,
        }
    }

    // Only caller: `benchmark/src/main.rs::provenance`.
    #[doc(hidden)]
    pub fn lane_count(&self) -> usize {
        1
    }

    /// The checkpoint replication factor, clamped to at least one.
    pub fn replica_count(&self) -> usize {
        self.replication.max(1)
    }

    // Only caller: `benchmark/src/main.rs::provenance`.
    #[doc(hidden)]
    pub fn batching(&self) -> bool {
        false
    }

    /// `true` iff daemons must run the reliable ack/retransmit transport
    /// (any fault class enabled). With the default benign plan this is
    /// `false` and the transport adds zero cost and zero wire bytes.
    pub fn reliable(&self) -> bool {
        !self.faults.is_none()
    }

    /// `true` iff the crash-recovery subsystem (failure detector,
    /// checkpointing, failover) must run: the fault plan can kill a
    /// daemon permanently. Transient fail-recover plans keep the PR 2
    /// behavior bit-identical.
    pub fn recovery_armed(&self) -> bool {
        self.faults.has_kills()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Destructured without `..` on purpose: a new field does not compile
    /// until it is listed here with its default and the reason it exists
    /// (setter, paper ablation, test seam, or benchmark/ — the same rows as
    /// DESIGN.md's config ledger).
    #[test]
    fn defaults_are_paper_era() {
        let c = ClusterConfig::new(8);
        assert!(!c.reliable(), "transport must default to off");
        let ClusterConfig {
            daemons,      // setter: `ClusterConfig::new`'s argument
            net,          // paper ablation (Fig. 12): apps, bench
            cpu_speed,    // paper ablation (Fig. 12(b)): bench
            vt_mode,      // paper ablation (§2.2): apps::swarm, examples/matmul
            gvt_interval, // paper ablation: bench `ablation_gvt`
            carry_code,   // paper ablation (WAVE): bench `ablation_carrycode`
            costs,        // paper ablation: the calibrated cost model
            seed,         // setter: `msgr run --seed`, bench
            max_events,   // test seam: the only way to reach `Stalled`
            segment_fuel, // test seam: the only way to reach the fuel fault
            faults,       // setter: `msgr run --faults`, bench
            retransmit,   // test seam: `max_attempts` reaches `Death::Abandoned`
            trace,        // setter: `msgr run --trace`, benchmark/src/probes.rs
            exec,         // named by benchmark/; setter: `msgr run --exec`
            analysis,     // named by benchmark/
            local_move,   // named by benchmark/
            succession,   // named by benchmark/
            replication,  // named by benchmark/; setter: `msgr run --replication`
            profile,      // setter: `msgr run --profile`, benchmark/src/probes.rs
        } = c;
        let msgr_trace::TraceConfig {
            enabled,  // the switch the `trace` setters flip
            capacity, // test seam: the only way to reach ring truncation
        } = trace;
        assert_eq!(daemons, 8);
        assert_eq!(net, NetKind::Ethernet100);
        assert_eq!(cpu_speed, 1.0);
        assert_eq!(vt_mode, VtMode::Conservative);
        assert_eq!(gvt_interval, 15 * MILLI);
        assert!(!carry_code, "code must travel by registry id");
        assert_eq!(costs, CostModel::default());
        assert_eq!(seed, 0x5EED);
        assert!(max_events > 0 && segment_fuel > 0);
        assert!(faults.is_none(), "faults must default to none");
        assert_eq!(retransmit, RetransmitPolicy::default());
        assert!(!enabled && capacity > 0, "tracing must default to off");
        if std::env::var("MSGR_EXEC").is_err() {
            assert_eq!(exec, ExecMode::Interp, "execution must default to interp");
        }
        assert!(analysis, "analysis must default to on");
        assert!(!local_move, "move-hops must default to off");
        assert_eq!(succession, Succession::Quorum);
        assert_eq!(replication, 1, "replication must default to k=1");
        assert!(!profile, "profiling must default to off");
        assert_eq!(ExecMode::parse("compiled"), Some(ExecMode::Compiled));
        assert_eq!(ExecMode::parse("jit"), None);
    }

    #[test]
    fn any_fault_knob_enables_the_transport() {
        let mut c = ClusterConfig::new(2);
        c.faults = FaultPlan::lossy(0.1);
        assert!(c.reliable());
        let mut c = ClusterConfig::new(2);
        c.faults.crashes.push(msgr_sim::CrashEvent::transient(1, MILLI, MILLI));
        assert!(c.reliable(), "crash-only plans still need acks to recover frames");
        assert!(!c.recovery_armed(), "transient crashes must not arm recovery");
        c.faults.crashes.push(msgr_sim::CrashEvent::kill(1, 10 * MILLI));
        assert!(c.recovery_armed(), "a permanent kill arms recovery");
    }

    #[test]
    fn retransmit_policy_defaults_are_sane() {
        let p = RetransmitPolicy::default();
        assert!(p.rto > 0 && p.max_rto >= p.rto);
        assert!(p.max_attempts >= 2);
    }

    #[test]
    #[should_panic(expected = "bad daemon count")]
    fn zero_daemons_rejected() {
        let _ = ClusterConfig::new(0);
    }
}

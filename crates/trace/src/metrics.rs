//! The typed metrics registry: every counter, gauge, and histogram the
//! runtime emits, declared as an enum with unit metadata.
//!
//! The stringly-typed `msgr_sim::Stats` API silently creates a new
//! series on any typo. This registry closes that hole two ways:
//!
//! 1. Emitting sites pass `Metric::X` instead of a string literal
//!    (`Stats::bump` accepts `impl Into<&'static str>`), so a typo is a
//!    compile error.
//! 2. Platforms install [`Metric::validator`] into `Stats`, turning any
//!    stray string key into a debug-assertion failure; release builds
//!    are unaffected.
//!
//! Adding a metric means adding one line to the `metrics!` table —
//! name, kind, and unit in one place.

/// What a metric measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// A plain count of occurrences.
    Count,
    /// Bytes.
    Bytes,
    /// Nanoseconds (simulated on the sim platform).
    Nanos,
    /// Interpreted bytecode operations.
    Ops,
}

/// How a metric accumulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter; cross-daemon merge sums.
    Counter,
    /// Last-value gauge; cross-daemon merge takes the max.
    Gauge,
    /// Log-bucket histogram of samples; merge adds bucket-wise.
    Histogram,
}

macro_rules! metrics {
    ($($variant:ident = $name:literal : $kind:ident, $unit:ident;)*) => {
        /// Every metric the runtime emits. `name()` is the `Stats` key.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[allow(missing_docs)]
        pub enum Metric {
            $($variant,)*
        }

        impl Metric {
            /// Every registered metric, in declaration order.
            pub const ALL: &'static [Metric] = &[$(Metric::$variant,)*];

            /// The stable string key used in `Stats` and JSON output.
            pub fn name(self) -> &'static str {
                match self { $(Metric::$variant => $name,)* }
            }

            /// Counter, gauge, or histogram.
            pub fn kind(self) -> MetricKind {
                match self { $(Metric::$variant => MetricKind::$kind,)* }
            }

            /// The unit of the recorded values.
            pub fn unit(self) -> Unit {
                match self { $(Metric::$variant => Unit::$unit,)* }
            }
        }
    };
}

metrics! {
    // ---- messenger lifecycle (daemon) ----
    Segments = "segments": Counter, Count;
    Ops = "ops": Counter, Ops;
    Hops = "hops": Counter, Count;
    VirtualHops = "virtual_hops": Counter, Count;
    Deletes = "deletes": Counter, Count;
    Creates = "creates": Counter, Count;
    CreateNoMatch = "create_no_match": Counter, Count;
    HopNoMatch = "hop_no_match": Counter, Count;
    Suspensions = "suspensions": Counter, Count;
    Terminated = "terminated": Counter, Count;
    Faults = "faults": Counter, Count;
    DeadLetters = "dead_letters": Counter, Count;
    StrandedKilled = "stranded_killed": Counter, Count;
    NodesDeleted = "nodes_deleted": Counter, Count;
    VerifyRejected = "verify_rejected": Counter, Count;
    // ---- migration ----
    MigrationsIn = "migrations_in": Counter, Count;
    MigrationsOut = "migrations_out": Counter, Count;
    MigrationBytes = "migration_bytes": Counter, Bytes;
    RemoteCreates = "remote_creates": Counter, Count;
    // ---- GVT / optimistic ----
    GvtRounds = "gvt_rounds": Counter, Count;
    GvtNs = "gvt_ns": Gauge, Nanos;
    Rollbacks = "rollbacks": Counter, Count;
    RolledBackEvents = "rolled_back_events": Counter, Count;
    AntiSent = "anti_sent": Counter, Count;
    Annihilations = "annihilations": Counter, Count;
    // ---- reliable transport ----
    XportSent = "xport_sent": Counter, Count;
    XportAcked = "xport_acked": Counter, Count;
    XportRetransmits = "xport_retransmits": Counter, Count;
    XportDupDropped = "xport_dup_dropped": Counter, Count;
    XportGaveUp = "xport_gave_up": Counter, Count;
    XportRedirected = "xport_redirected": Counter, Count;
    XportDeliveryNs = "xport_delivery_ns": Histogram, Nanos;
    AcksDeferred = "acks_deferred": Counter, Count;
    // ---- failure detection / recovery ----
    FdBeats = "fd_beats": Counter, Count;
    FdSuspects = "fd_suspects": Counter, Count;
    FdDeaths = "fd_deaths": Counter, Count;
    Evictions = "evictions": Counter, Count;
    Checkpoints = "checkpoints": Counter, Count;
    CheckpointBytes = "checkpoint_bytes": Counter, Bytes;
    Restores = "restores": Counter, Count;
    RestoredNodes = "restored_nodes": Counter, Count;
    RestoredMessengers = "restored_messengers": Counter, Count;
    RecoveryLatencyNs = "recovery_latency_ns": Histogram, Nanos;
    // ---- control plane: quorum membership, gossip, replication ----
    CtrlProposals = "ctrl_proposals": Counter, Count;
    CtrlFrames = "ctrl_frames": Counter, Count;
    CtrlDecrees = "ctrl_decrees": Counter, Count;
    GossipPushes = "gossip_pushes": Counter, Count;
    GossipReplies = "gossip_replies": Counter, Count;
    GossipMerges = "gossip_merges": Counter, Count;
    GossipCodeMismatch = "gossip_code_mismatch": Counter, Count;
    CkptReplicas = "ckpt_replicas": Counter, Count;
    CkptReplicaBytes = "ckpt_replica_bytes": Counter, Bytes;
    CkptReplicaAcks = "ckpt_replica_acks": Counter, Count;
    // ---- retired, never emitted ----
    // Only caller: `benchmark/src/metrics.rs` PER_LAYER row `core.lane_steals`.
    LaneSteals = "lane_steals": Counter, Count;
    // Only caller: `benchmark/src/metrics.rs` PER_LAYER row `core.batch_frames`.
    BatchFrames = "batch_frames": Counter, Count;
    // Only caller: `benchmark/src/metrics.rs` PER_LAYER row `core.batch_flushes`.
    BatchFlushes = "batch_flushes": Counter, Count;
    // Only caller: `benchmark/src/metrics.rs` PER_LAYER row `core.analysis_snapshots_elided`.
    AnalysisSnapshotsElided = "analysis_snapshots_elided": Counter, Count;
    // ---- compiled execution (code registry) ----
    CompilePrograms = "compile_programs": Counter, Count;
    CompileSuperinsts = "compile_superinsts": Counter, Count;
    CompileSteps = "compile_steps": Counter, Ops;
    CompileCacheHits = "compile_cache_hits": Counter, Count;
    // ---- interprocedural effect analysis (code registry) ----
    AnalysisTypedLoops = "analysis_typed_loops": Counter, Count;
    // ---- platform: network + faults ----
    Wires = "wires": Counter, Count;
    WireBytes = "wire_bytes": Counter, Bytes;
    NetFramesLost = "net_frames_lost": Counter, Count;
    NetFramesDuplicated = "net_frames_duplicated": Counter, Count;
    NetFramesDelayed = "net_frames_delayed": Counter, Count;
    CrashFramesLost = "crash_frames_lost": Counter, Count;
    Kills = "kills": Counter, Count;
    Crashes = "crashes": Counter, Count;
    Restarts = "restarts": Counter, Count;
    NetMessages = "net_messages": Counter, Count;
    NetPayloadBytes = "net_payload_bytes": Counter, Bytes;
    NetQueueingNs = "net_queueing_ns": Counter, Nanos;
    // ---- tracing ----
    TraceDropped = "trace_dropped": Counter, Count;
    // ---- profiler (emitted only with profiling enabled) ----
    ProfLedgers = "prof_ledgers": Counter, Count;
    ProfSamples = "prof_samples": Counter, Count;
    // ---- PVM baseline ----
    Exited = "exited": Counter, Count;
    Spawns = "spawns": Counter, Count;
    BarriersReleased = "barriers_released": Counter, Count;
    Messages = "messages": Counter, Count;
    MessageBytes = "message_bytes": Counter, Bytes;
    InjectedLosses = "injected_losses": Counter, Count;
    Retransmissions = "retransmissions": Counter, Count;
    Fragments = "fragments": Counter, Count;
}

impl Metric {
    /// How many metrics are registered: the length of [`Counters`].
    const COUNT: usize = Metric::ALL.len();

    /// Look up a metric by its string key.
    pub fn from_name(name: &str) -> Option<Metric> {
        Metric::ALL.iter().copied().find(|m| m.name() == name)
    }

    /// A key validator suitable for `msgr_sim::stats::install_key_validator`:
    /// accepts exactly the registered names.
    pub fn validator(name: &str) -> bool {
        Metric::from_name(name).is_some()
    }
}

impl From<Metric> for &'static str {
    fn from(m: Metric) -> &'static str {
        m.name()
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Counters indexed by [`Metric`]: a bump is an add at a fixed offset,
/// not a string-keyed map update. A slot stays `None` until its first
/// add, so [`Counters::touched`] yields exactly the counters a string
/// keyed sink would hold — a counter touched only by adding zero
/// included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counters([Option<u64>; Metric::COUNT]);

impl Default for Counters {
    fn default() -> Self {
        Counters([None; Metric::COUNT])
    }
}

impl Counters {
    /// Add `n` to counter `m` (touching it even when `n` is 0).
    pub fn add(&mut self, m: Metric, n: u64) {
        debug_assert_eq!(m.kind(), MetricKind::Counter, "{m} is not a counter");
        *self.0[m as usize].get_or_insert(0) += n;
    }

    /// Add one to counter `m`.
    pub fn bump(&mut self, m: Metric) {
        self.add(m, 1);
    }

    /// Counter `m` (0 if never touched).
    pub fn get(&self, m: Metric) -> u64 {
        self.0[m as usize].unwrap_or(0)
    }

    /// Every touched counter with its value, in declaration order.
    pub fn touched(&self) -> impl Iterator<Item = (Metric, u64)> + '_ {
        Metric::ALL.iter().zip(&self.0).filter_map(|(&m, v)| v.map(|v| (m, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_round_trip() {
        let mut seen = BTreeSet::new();
        for &m in Metric::ALL {
            assert!(seen.insert(m.name()), "duplicate metric name {}", m.name());
            assert_eq!(Metric::from_name(m.name()), Some(m));
        }
        assert_eq!(Metric::from_name("hpos"), None, "typos are caught");
        assert!(Metric::validator("hops"));
        assert!(!Metric::validator("hpos"));
    }

    #[test]
    fn metadata_is_consistent() {
        assert_eq!(Metric::XportDeliveryNs.kind(), MetricKind::Histogram);
        assert_eq!(Metric::XportDeliveryNs.unit(), Unit::Nanos);
        assert_eq!(Metric::GvtNs.kind(), MetricKind::Gauge);
        assert_eq!(Metric::MigrationBytes.unit(), Unit::Bytes);
        let s: &'static str = Metric::Hops.into();
        assert_eq!(s, "hops");
        assert_eq!(Metric::Hops.to_string(), "hops");
    }

    #[test]
    fn counters_are_indexed_by_declaration_order() {
        for (i, &m) in Metric::ALL.iter().enumerate() {
            assert_eq!(m as usize, i, "{m}");
        }
        let mut c = Counters::default();
        assert_eq!(c.touched().count(), 0);
        c.bump(Metric::Ops);
        c.add(Metric::Hops, 4);
        c.add(Metric::FdSuspects, 0);
        c.bump(Metric::Hops);
        assert_eq!((c.get(Metric::Hops), c.get(Metric::Segments)), (5, 0));
        let touched: Vec<_> = c.touched().collect();
        assert_eq!(touched, [(Metric::Ops, 1), (Metric::Hops, 5), (Metric::FdSuspects, 0)]);
    }
}

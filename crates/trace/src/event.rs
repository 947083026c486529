//! The typed trace event model.
//!
//! Every observable state transition in a run — messenger lifecycle,
//! transport frames, GVT protocol, checkpoint/restore, injected faults —
//! is one [`TraceEvent`]: a [`EventKind`] stamped with the emitting
//! daemon, that daemon's monotone event sequence number, the platform
//! clock (`rt`, simulated nanoseconds; 0 on the threads platform, which
//! has no deterministic clock), the messenger virtual time the event
//! concerns (`vt`), and the daemon's GVT estimate at emission time.
//!
//! The JSONL encoding is canonical: field order is fixed and float
//! formatting uses Rust's shortest-roundtrip `Display`, so two
//! traces of the same deterministic run are byte-identical.

use crate::json::{escape_into, Json};

/// One trace event, fully stamped.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Emitting daemon.
    pub daemon: u16,
    /// Monotone per-daemon sequence number (1-based; total order within
    /// one daemon's stream even when `rt` ties).
    pub seq: u64,
    /// Platform realtime: simulated nanoseconds since run start on the
    /// simulation platform, 0 on the threads platform.
    pub rt: u64,
    /// Messenger virtual time the event concerns; for system events
    /// (frames, GVT, checkpoints) this is the daemon's GVT estimate.
    pub vt: f64,
    /// The emitting daemon's GVT estimate when the event fired.
    pub gvt: f64,
    /// What happened.
    pub kind: EventKind,
}

/// The kinds of observable state transitions.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A fresh messenger was injected at this daemon.
    MsgrInject {
        /// Messenger id (raw `MessengerId.0`).
        mid: u64,
    },
    /// A messenger replica was dispatched to daemon `to`.
    MsgrHop {
        /// Replica id (each hop destination gets a fresh id).
        mid: u64,
        /// Destination daemon.
        to: u16,
        /// Serialized messenger bytes on the wire.
        bytes: u64,
    },
    /// A migrated messenger was accepted and enqueued here.
    MsgrArrive {
        /// Messenger id.
        mid: u64,
    },
    /// A hop or create replicated one messenger into `replicas` copies.
    MsgrFork {
        /// The parent messenger id.
        mid: u64,
        /// Number of replicas produced.
        replicas: u64,
    },
    /// A messenger suspended on virtual time.
    MsgrPark {
        /// The continuation's (fresh) id.
        mid: u64,
        /// Virtual time it waits for.
        wake: f64,
    },
    /// A parked messenger became runnable (GVT reached its wake time).
    MsgrRevive {
        /// Messenger id.
        mid: u64,
    },
    /// A messenger terminated normally.
    MsgrRetire {
        /// Messenger id.
        mid: u64,
    },
    /// A messenger died with a runtime fault.
    MsgrFault {
        /// Messenger id.
        mid: u64,
    },
    /// Reliable transport: a payload frame was sealed and first sent.
    FrameSend {
        /// Channel (original receiver daemon).
        chan: u16,
        /// Transport sequence number on that channel.
        seq: u64,
        /// Frame size on the wire, including header.
        bytes: u64,
    },
    /// Reliable transport: an ack removed frame(s) from the retransmit
    /// buffer.
    FrameAck {
        /// Channel the ack covers.
        chan: u16,
        /// The specifically acked sequence number.
        seq: u64,
    },
    /// Reliable transport: a retransmission timer re-sent a frame.
    FrameRetransmit {
        /// Channel.
        chan: u16,
        /// Frame sequence number.
        seq: u64,
        /// Attempt count after this send (first send = 1).
        attempt: u32,
    },
    /// Failover: an adopted unacknowledged frame was re-sent toward the
    /// channel's current owner.
    FrameRedirect {
        /// Channel.
        chan: u16,
        /// Frame sequence number.
        seq: u64,
        /// Daemon the frame was redirected to.
        to: u16,
    },
    /// The GVT coordinator started round `round`.
    GvtRound {
        /// Round number.
        round: u64,
    },
    /// This daemon learned a new GVT estimate.
    GvtAdvance {
        /// The new GVT.
        gvt: f64,
    },
    /// Membership eviction: `victim` was declared permanently dead.
    GvtEvict {
        /// Evicted daemon.
        victim: u16,
        /// The restored checkpoint's virtual-time floor.
        floor: f64,
    },
    /// This daemon snapshotted its durable state.
    Checkpoint {
        /// Snapshot size in bytes.
        bytes: u64,
    },
    /// Failover: this daemon restored `victim`'s checkpoint.
    Restore {
        /// The dead daemon whose state was adopted.
        victim: u16,
        /// Logical nodes restored.
        nodes: u64,
        /// Messengers re-enqueued.
        messengers: u64,
    },
    /// Fault injection dropped a frame bound for `to`.
    NetDrop {
        /// Intended receiver.
        to: u16,
    },
    /// Fault injection duplicated a frame bound for `to`.
    NetDup {
        /// Receiver.
        to: u16,
    },
    /// Fault injection delayed a frame bound for `to`.
    NetDelay {
        /// Receiver.
        to: u16,
        /// Extra delay in nanoseconds.
        by: u64,
    },
    /// A program passed verification and its loops were compiled in the
    /// shared code registry (emitted once per program body).
    CodeCompile {
        /// Program content id (raw `ProgramId.0`). Serialized as a hex
        /// *string*: the hash uses all 64 bits, and JSON numbers above
        /// 2^53 would not survive the f64-backed parser.
        prog: u64,
        /// Functions compiled.
        funcs: u64,
        /// Superinstructions (fused `while` loops) across all functions.
        superinsts: u64,
    },
    /// A program registration found the body already compiled in the
    /// registry (content-hash cache hit).
    CodeCacheHit {
        /// Program content id.
        prog: u64,
    },
    /// This daemon proposed a burial decree for `victim` to the quorum
    /// (consensus instance `(victim, seq)`).
    CtrlPropose {
        /// The daemon whose eviction is being proposed.
        victim: u16,
        /// Consensus instance sequence (cascades bump it).
        seq: u32,
    },
    /// A burial decree was learned: a majority agreed `victim` is dead
    /// and named `successor` as the restoring heir.
    CtrlDecide {
        /// The daemon the decree buries.
        victim: u16,
        /// The daemon the decree names to restore the checkpoint.
        successor: u16,
        /// Consensus instance sequence.
        seq: u32,
    },
    /// An anti-entropy digest from `from` taught this daemon something
    /// (membership epoch, eviction, GVT hint, or code-registry hash).
    GossipMerge {
        /// The peer whose digest was merged.
        from: u16,
    },
    /// This daemon accepted a replicated checkpoint from `owner`.
    CkptReplica {
        /// The daemon whose checkpoint this is.
        owner: u16,
        /// Snapshot version accepted.
        ver: u32,
    },
    /// Profiler: a messenger's per-phase latency ledger, emitted at its
    /// terminal local disposition (retire, fault, or hop away) when
    /// profiling is enabled. All durations are nanoseconds: simulated on
    /// the `sim` platform, monotonic wall-clock on `threads`.
    PhaseLedger {
        /// Final local messenger id (the id on the retire/fault/hop event).
        mid: u64,
        /// The id this messenger carried when it first became resident
        /// here (arrival or injection). Parks re-identify the
        /// continuation, so `born != mid` after a park; the transport
        /// join key for the inbound hop edge is `born`.
        born: u64,
        /// For a *partial* sender-side ledger covering an outgoing
        /// replica: the id of the parent that spawned it (0 for full
        /// ledgers). Partial ledgers carry only the encode phase.
        parent: u64,
        /// Time in the ready queue before execution started.
        queue: u64,
        /// Receive-time verification work attributed to this messenger.
        verify: u64,
        /// VM execution (bytecode ops + native calls).
        exec: u64,
        /// Serialize/encode + decode costs for migration.
        enc: u64,
        /// Transport in-flight time (sim only; 0 on threads).
        xport: u64,
        /// Parked on virtual time waiting for GVT.
        park: u64,
        /// Recovery stall: time between the host daemon's death and the
        /// restore that revived this messenger.
        stall: u64,
        /// Sum of all phases — the messenger's locally-attributed
        /// lifetime. Kept explicit so consumers need no arithmetic and
        /// the fraction-sum invariant is checkable from one event.
        total: u64,
    },
    /// Profiler: aggregated VM program-counter samples for one execution
    /// segment, keyed by source line (op-count-triggered, deterministic
    /// per seed).
    PcSample {
        /// Program content id (hex string on the wire, like `CodeCompile`).
        prog: u64,
        /// Function index within the program.
        func: u32,
        /// Source line (from the debug line table; 0 if unknown).
        line: u32,
        /// Samples attributed to this line during the segment.
        count: u64,
    },
    /// This daemon was permanently killed (volatile state destroyed).
    Kill,
    /// An application-level phase span opened (e.g. "compute").
    SpanBegin {
        /// Span name.
        name: String,
    },
    /// An application-level phase span closed.
    SpanEnd {
        /// Span name.
        name: String,
    },
}

impl EventKind {
    /// The canonical wire name of this kind (the JSONL `ev` field).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::MsgrInject { .. } => "inject",
            EventKind::MsgrHop { .. } => "hop",
            EventKind::MsgrArrive { .. } => "arrive",
            EventKind::MsgrFork { .. } => "fork",
            EventKind::MsgrPark { .. } => "park",
            EventKind::MsgrRevive { .. } => "revive",
            EventKind::MsgrRetire { .. } => "retire",
            EventKind::MsgrFault { .. } => "fault",
            EventKind::FrameSend { .. } => "send",
            EventKind::FrameAck { .. } => "ack",
            EventKind::FrameRetransmit { .. } => "retransmit",
            EventKind::FrameRedirect { .. } => "redirect",
            EventKind::GvtRound { .. } => "gvt_round",
            EventKind::GvtAdvance { .. } => "gvt_advance",
            EventKind::GvtEvict { .. } => "gvt_evict",
            EventKind::Checkpoint { .. } => "checkpoint",
            EventKind::Restore { .. } => "restore",
            EventKind::NetDrop { .. } => "net_drop",
            EventKind::NetDup { .. } => "net_dup",
            EventKind::NetDelay { .. } => "net_delay",
            EventKind::CodeCompile { .. } => "compile",
            EventKind::CodeCacheHit { .. } => "code_hit",
            EventKind::CtrlPropose { .. } => "ctrl_propose",
            EventKind::CtrlDecide { .. } => "ctrl_decide",
            EventKind::GossipMerge { .. } => "gossip_merge",
            EventKind::CkptReplica { .. } => "ckpt_replica",
            EventKind::PhaseLedger { .. } => "phase_ledger",
            EventKind::PcSample { .. } => "pc_sample",
            EventKind::Kill => "kill",
            EventKind::SpanBegin { .. } => "span_begin",
            EventKind::SpanEnd { .. } => "span_end",
        }
    }
}

/// Format an `f64` so the output is valid JSON and round-trips through
/// [`crate::json::parse`] bit-for-bit for every finite value. Non-finite
/// values (which the runtime never stamps, but defensive is cheap) clamp
/// to the largest finite magnitude.
pub fn fmt_f64(v: f64, out: &mut String) {
    let v = if v.is_finite() {
        v
    } else if v.is_nan() {
        0.0
    } else if v > 0.0 {
        f64::MAX
    } else {
        f64::MIN
    };
    // Shortest-roundtrip Display; integral values print without a dot
    // ("0"), which is still a valid JSON number.
    out.push_str(&format!("{v}"));
}

impl TraceEvent {
    /// Append this event's canonical single-line JSON encoding to `out`
    /// (no trailing newline).
    pub fn write_jsonl(&self, out: &mut String) {
        use std::fmt::Write;
        let _ =
            write!(out, "{{\"d\":{},\"s\":{},\"rt\":{},\"vt\":", self.daemon, self.seq, self.rt);
        fmt_f64(self.vt, out);
        out.push_str(",\"gvt\":");
        fmt_f64(self.gvt, out);
        let _ = write!(out, ",\"ev\":\"{}\"", self.kind.name());
        match &self.kind {
            EventKind::MsgrInject { mid }
            | EventKind::MsgrArrive { mid }
            | EventKind::MsgrRevive { mid }
            | EventKind::MsgrRetire { mid }
            | EventKind::MsgrFault { mid } => {
                let _ = write!(out, ",\"mid\":{mid}");
            }
            EventKind::MsgrHop { mid, to, bytes } => {
                let _ = write!(out, ",\"mid\":{mid},\"to\":{to},\"bytes\":{bytes}");
            }
            EventKind::MsgrFork { mid, replicas } => {
                let _ = write!(out, ",\"mid\":{mid},\"replicas\":{replicas}");
            }
            EventKind::MsgrPark { mid, wake } => {
                let _ = write!(out, ",\"mid\":{mid},\"wake\":");
                fmt_f64(*wake, out);
            }
            EventKind::FrameSend { chan, seq, bytes } => {
                let _ = write!(out, ",\"chan\":{chan},\"seq\":{seq},\"bytes\":{bytes}");
            }
            EventKind::FrameAck { chan, seq } => {
                let _ = write!(out, ",\"chan\":{chan},\"seq\":{seq}");
            }
            EventKind::FrameRetransmit { chan, seq, attempt } => {
                let _ = write!(out, ",\"chan\":{chan},\"seq\":{seq},\"attempt\":{attempt}");
            }
            EventKind::FrameRedirect { chan, seq, to } => {
                let _ = write!(out, ",\"chan\":{chan},\"seq\":{seq},\"to\":{to}");
            }
            EventKind::GvtRound { round } => {
                let _ = write!(out, ",\"round\":{round}");
            }
            EventKind::GvtAdvance { gvt } => {
                out.push_str(",\"to\":");
                fmt_f64(*gvt, out);
            }
            EventKind::GvtEvict { victim, floor } => {
                let _ = write!(out, ",\"victim\":{victim},\"floor\":");
                fmt_f64(*floor, out);
            }
            EventKind::Checkpoint { bytes } => {
                let _ = write!(out, ",\"bytes\":{bytes}");
            }
            EventKind::Restore { victim, nodes, messengers } => {
                let _ =
                    write!(out, ",\"victim\":{victim},\"nodes\":{nodes},\"msgrs\":{messengers}");
            }
            EventKind::NetDrop { to } | EventKind::NetDup { to } => {
                let _ = write!(out, ",\"to\":{to}");
            }
            EventKind::NetDelay { to, by } => {
                let _ = write!(out, ",\"to\":{to},\"by\":{by}");
            }
            EventKind::CodeCompile { prog, funcs, superinsts } => {
                let _ = write!(
                    out,
                    ",\"prog\":\"{prog:016x}\",\"funcs\":{funcs},\"fused\":{superinsts}"
                );
            }
            EventKind::CodeCacheHit { prog } => {
                let _ = write!(out, ",\"prog\":\"{prog:016x}\"");
            }
            EventKind::CtrlPropose { victim, seq } => {
                let _ = write!(out, ",\"victim\":{victim},\"iseq\":{seq}");
            }
            EventKind::CtrlDecide { victim, successor, seq } => {
                let _ = write!(out, ",\"victim\":{victim},\"heir\":{successor},\"iseq\":{seq}");
            }
            EventKind::GossipMerge { from } => {
                let _ = write!(out, ",\"from\":{from}");
            }
            EventKind::CkptReplica { owner, ver } => {
                let _ = write!(out, ",\"owner\":{owner},\"ver\":{ver}");
            }
            EventKind::PhaseLedger {
                mid,
                born,
                parent,
                queue,
                verify,
                exec,
                enc,
                xport,
                park,
                stall,
                total,
            } => {
                let _ = write!(
                    out,
                    ",\"mid\":{mid},\"born\":{born},\"parent\":{parent},\"queue\":{queue},\
                     \"verify\":{verify},\"exec\":{exec},\"enc\":{enc},\"xport\":{xport},\
                     \"park\":{park},\"stall\":{stall},\"total\":{total}"
                );
            }
            EventKind::PcSample { prog, func, line, count } => {
                let _ = write!(
                    out,
                    ",\"prog\":\"{prog:016x}\",\"func\":{func},\"line\":{line},\"count\":{count}"
                );
            }
            EventKind::Kill => {}
            EventKind::SpanBegin { name } | EventKind::SpanEnd { name } => {
                out.push_str(",\"name\":\"");
                escape_into(name, out);
                out.push('"');
            }
        }
        out.push('}');
    }

    /// Decode one JSONL line. This is also the event schema check:
    /// unknown kinds, missing fields, or mistyped fields are errors.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first schema violation.
    #[deny(clippy::cast_possible_truncation)]
    pub fn from_json(j: &Json) -> Result<TraceEvent, String> {
        let daemon = req_u16(j, "d")?;
        let seq = req_u64(j, "s")?;
        let rt = req_u64(j, "rt")?;
        let vt = req_f64(j, "vt")?;
        let gvt = req_f64(j, "gvt")?;
        let ev = j
            .get("ev")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing event kind \"ev\"".to_string())?;
        let kind = match ev {
            "inject" => EventKind::MsgrInject { mid: req_u64(j, "mid")? },
            "hop" => EventKind::MsgrHop {
                mid: req_u64(j, "mid")?,
                to: req_u16(j, "to")?,
                bytes: req_u64(j, "bytes")?,
            },
            "arrive" => EventKind::MsgrArrive { mid: req_u64(j, "mid")? },
            "fork" => {
                EventKind::MsgrFork { mid: req_u64(j, "mid")?, replicas: req_u64(j, "replicas")? }
            }
            "park" => EventKind::MsgrPark { mid: req_u64(j, "mid")?, wake: req_f64(j, "wake")? },
            "revive" => EventKind::MsgrRevive { mid: req_u64(j, "mid")? },
            "retire" => EventKind::MsgrRetire { mid: req_u64(j, "mid")? },
            "fault" => EventKind::MsgrFault { mid: req_u64(j, "mid")? },
            "send" => EventKind::FrameSend {
                chan: req_u16(j, "chan")?,
                seq: req_u64(j, "seq")?,
                bytes: req_u64(j, "bytes")?,
            },
            "ack" => EventKind::FrameAck { chan: req_u16(j, "chan")?, seq: req_u64(j, "seq")? },
            "retransmit" => EventKind::FrameRetransmit {
                chan: req_u16(j, "chan")?,
                seq: req_u64(j, "seq")?,
                attempt: req_u32(j, "attempt")?,
            },
            "redirect" => EventKind::FrameRedirect {
                chan: req_u16(j, "chan")?,
                seq: req_u64(j, "seq")?,
                to: req_u16(j, "to")?,
            },
            "gvt_round" => EventKind::GvtRound { round: req_u64(j, "round")? },
            "gvt_advance" => EventKind::GvtAdvance { gvt: req_f64(j, "to")? },
            "gvt_evict" => {
                EventKind::GvtEvict { victim: req_u16(j, "victim")?, floor: req_f64(j, "floor")? }
            }
            "checkpoint" => EventKind::Checkpoint { bytes: req_u64(j, "bytes")? },
            "restore" => EventKind::Restore {
                victim: req_u16(j, "victim")?,
                nodes: req_u64(j, "nodes")?,
                messengers: req_u64(j, "msgrs")?,
            },
            "net_drop" => EventKind::NetDrop { to: req_u16(j, "to")? },
            "net_dup" => EventKind::NetDup { to: req_u16(j, "to")? },
            "net_delay" => EventKind::NetDelay { to: req_u16(j, "to")?, by: req_u64(j, "by")? },
            "compile" => EventKind::CodeCompile {
                prog: req_hex_u64(j, "prog")?,
                funcs: req_u64(j, "funcs")?,
                superinsts: req_u64(j, "fused")?,
            },
            "code_hit" => EventKind::CodeCacheHit { prog: req_hex_u64(j, "prog")? },
            "ctrl_propose" => {
                EventKind::CtrlPropose { victim: req_u16(j, "victim")?, seq: req_u32(j, "iseq")? }
            }
            "ctrl_decide" => EventKind::CtrlDecide {
                victim: req_u16(j, "victim")?,
                successor: req_u16(j, "heir")?,
                seq: req_u32(j, "iseq")?,
            },
            "gossip_merge" => EventKind::GossipMerge { from: req_u16(j, "from")? },
            "ckpt_replica" => {
                EventKind::CkptReplica { owner: req_u16(j, "owner")?, ver: req_u32(j, "ver")? }
            }
            "phase_ledger" => EventKind::PhaseLedger {
                mid: req_u64(j, "mid")?,
                born: req_u64(j, "born")?,
                parent: req_u64(j, "parent")?,
                queue: req_u64(j, "queue")?,
                verify: req_u64(j, "verify")?,
                exec: req_u64(j, "exec")?,
                enc: req_u64(j, "enc")?,
                xport: req_u64(j, "xport")?,
                park: req_u64(j, "park")?,
                stall: req_u64(j, "stall")?,
                total: req_u64(j, "total")?,
            },
            "pc_sample" => EventKind::PcSample {
                prog: req_hex_u64(j, "prog")?,
                func: req_u32(j, "func")?,
                line: req_u32(j, "line")?,
                count: req_u64(j, "count")?,
            },
            "kill" => EventKind::Kill,
            "span_begin" => EventKind::SpanBegin { name: req_str(j, "name")? },
            "span_end" => EventKind::SpanEnd { name: req_str(j, "name")? },
            other => return Err(format!("unknown event kind {other:?}")),
        };
        Ok(TraceEvent { daemon, seq, rt, vt, gvt, kind })
    }
}

fn req_u64(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key).and_then(Json::as_u64).ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

/// An integer field that must fit 16 bits: `"d":65541` is a schema
/// violation, not daemon 5.
fn req_u16(j: &Json, key: &str) -> Result<u16, String> {
    let v = req_u64(j, key)?;
    u16::try_from(v).map_err(|_| format!("field {key:?} out of range: {v}"))
}

fn req_u32(j: &Json, key: &str) -> Result<u32, String> {
    let v = req_u64(j, key)?;
    u32::try_from(v).map_err(|_| format!("field {key:?} out of range: {v}"))
}

fn req_f64(j: &Json, key: &str) -> Result<f64, String> {
    j.get(key).and_then(Json::as_f64).ok_or_else(|| format!("missing or non-number field {key:?}"))
}

/// A u64 carried as a 16-digit hex string (full 64-bit ids exceed the
/// exact-integer range of JSON's f64 numbers).
fn req_hex_u64(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(Json::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| format!("missing or non-hex field {key:?}"))
}

fn req_str(j: &Json, key: &str) -> Result<String, String> {
    j.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field {key:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn roundtrip(ev: TraceEvent) {
        let mut line = String::new();
        ev.write_jsonl(&mut line);
        let parsed = json::parse(&line).expect("valid json");
        let back = TraceEvent::from_json(&parsed).expect("valid event");
        assert_eq!(back, ev, "line: {line}");
        let mut line2 = String::new();
        back.write_jsonl(&mut line2);
        assert_eq!(line, line2, "canonical encoding is stable");
    }

    #[test]
    fn every_kind_round_trips() {
        let kinds = vec![
            EventKind::MsgrInject { mid: 1 },
            EventKind::MsgrHop { mid: 2, to: 3, bytes: 88 },
            EventKind::MsgrArrive { mid: 2 },
            EventKind::MsgrFork { mid: 1, replicas: 4 },
            EventKind::MsgrPark { mid: 9, wake: 1.25 },
            EventKind::MsgrRevive { mid: 9 },
            EventKind::MsgrRetire { mid: 9 },
            EventKind::MsgrFault { mid: 7 },
            EventKind::FrameSend { chan: 2, seq: 10, bytes: 256 },
            EventKind::FrameAck { chan: 2, seq: 10 },
            EventKind::FrameRetransmit { chan: 2, seq: 10, attempt: 3 },
            EventKind::FrameRedirect { chan: 2, seq: 10, to: 1 },
            EventKind::GvtRound { round: 5 },
            EventKind::GvtAdvance { gvt: 0.375 },
            EventKind::GvtEvict { victim: 3, floor: 0.5 },
            EventKind::Checkpoint { bytes: 4096 },
            EventKind::Restore { victim: 3, nodes: 7, messengers: 2 },
            EventKind::NetDrop { to: 1 },
            EventKind::NetDup { to: 1 },
            EventKind::NetDelay { to: 1, by: 50_000 },
            // Full-64-bit id: must survive the f64-backed JSON parser.
            EventKind::CodeCompile { prog: 0xE2D4_66F1_0A9B_3C47, funcs: 3, superinsts: 11 },
            EventKind::CodeCacheHit { prog: u64::MAX - 1 },
            EventKind::CtrlPropose { victim: 3, seq: 1 },
            EventKind::CtrlDecide { victim: 3, successor: 4, seq: 1 },
            EventKind::GossipMerge { from: 6 },
            EventKind::CkptReplica { owner: 3, ver: 12 },
            EventKind::PhaseLedger {
                mid: 42,
                born: 17,
                parent: 0,
                queue: 1_000,
                verify: 0,
                exec: 44_000,
                enc: 9_300,
                xport: 120_000,
                park: 0,
                stall: 2_500_000,
                total: 2_674_300,
            },
            EventKind::PcSample { prog: 0xE2D4_66F1_0A9B_3C47, func: 0, line: 7, count: 512 },
            EventKind::Kill,
            EventKind::SpanBegin { name: "compute".to_string() },
            EventKind::SpanEnd { name: "a \"quoted\" name\n".to_string() },
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            roundtrip(TraceEvent {
                daemon: i as u16 % 5,
                seq: i as u64 + 1,
                rt: 1_000 * i as u64,
                vt: i as f64 * 0.125,
                gvt: i as f64 * 0.0625,
                kind,
            });
        }
    }

    #[test]
    fn schema_rejects_unknown_kind_and_missing_fields() {
        let j = json::parse(r#"{"d":0,"s":1,"rt":0,"vt":0,"gvt":0,"ev":"warp"}"#).unwrap();
        assert!(TraceEvent::from_json(&j).unwrap_err().contains("unknown event kind"));
        // A retired kind is unknown too: nothing emits or reads it.
        let j = json::parse(
            r#"{"d":0,"s":1,"rt":0,"vt":0,"gvt":0,"ev":"code_analysis","prog":"00000000000000ff","hop_free":2,"typed_loops":1}"#,
        )
        .unwrap();
        assert!(TraceEvent::from_json(&j).unwrap_err().contains("unknown event kind"));
        let j = json::parse(r#"{"d":0,"s":1,"rt":0,"vt":0,"gvt":0,"ev":"hop","mid":1}"#).unwrap();
        assert!(TraceEvent::from_json(&j).unwrap_err().contains("\"to\""));
        let j = json::parse(r#"{"d":0,"s":1,"vt":0,"gvt":0,"ev":"kill"}"#).unwrap();
        assert!(TraceEvent::from_json(&j).unwrap_err().contains("\"rt\""));
        let j = json::parse(r#"{"d":65541,"s":1,"rt":0,"vt":0,"gvt":0,"ev":"kill"}"#).unwrap();
        assert!(TraceEvent::from_json(&j).unwrap_err().contains("out of range"), "not daemon 5");
    }

    #[test]
    fn non_finite_floats_are_clamped_to_valid_json() {
        let mut line = String::new();
        TraceEvent {
            daemon: 0,
            seq: 1,
            rt: 0,
            vt: f64::INFINITY,
            gvt: f64::NAN,
            kind: EventKind::Kill,
        }
        .write_jsonl(&mut line);
        let parsed = json::parse(&line).expect("still valid json");
        assert!(TraceEvent::from_json(&parsed).is_ok());
    }
}

//! Inter-daemon wire protocol.
//!
//! Everything daemons exchange travels as one of these frames. Messenger
//! state is genuinely serialized (`msgr_vm::wire`) — the header fields
//! are carried alongside for routing without re-decoding. The simulation
//! platform charges network time for [`Wire::wire_bytes`]; the threaded
//! platform moves frames over channels.

#![deny(clippy::cast_possible_truncation)]

use msgr_vm::bytes::{Bytes, BytesMut};
use msgr_vm::wire::{get_value, get_vt, put_value, put_vt};

use msgr_ctrl::{Decree, Digest, InstanceId, PaxosMsg};
use msgr_gvt::CtrlMsg;
use msgr_vm::{LinkInstance, MessengerId, Value, VmError, Vt};

use crate::ids::{DaemonId, NodeRef};
use crate::logical::Orient;

/// A migrating messenger's routing header + payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Migration {
    /// The messenger's id.
    pub id: MessengerId,
    /// Its virtual time (for GVT accounting and Time-Warp keys).
    pub vtime: Vt,
    /// The sender's GVT epoch (Mattern color).
    pub epoch: u64,
    /// True for an anti-messenger (cancels `id`; carries no payload).
    pub anti: bool,
    /// Destination logical node.
    pub to: (DaemonId, NodeRef),
    /// The link instance traversed (sets `$last`); `None` for virtual
    /// hops and injections.
    pub via: Option<LinkInstance>,
    /// Encoded [`msgr_vm::MessengerState`] (empty for anti-messengers).
    pub bytes: Bytes,
    /// Extra payload accounted on the wire when the cluster runs in
    /// carry-code mode (the WAVE-style ablation): the serialized program
    /// size.
    pub code_bytes: u64,
}

/// A remote `create`: instantiate a node (id pre-allocated by the
/// origin), install the connecting link's far half, and deliver the
/// creating messenger into the new node.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateNode {
    /// Pre-allocated id for the new node.
    pub gid: NodeRef,
    /// New node's name (`Value::Null` = unnamed).
    pub name: Value,
    /// The origin endpoint (current node of the creating messenger).
    pub origin: (DaemonId, NodeRef),
    /// Cached name of the origin node.
    pub origin_name: Value,
    /// Shared link instance id.
    pub inst: LinkInstance,
    /// Link name (`Value::Null` = unnamed).
    pub link_name: Value,
    /// Orientation of the link *as stored at the new node*.
    pub orient_at_new: Orient,
    /// The messenger replica that continues in the new node.
    pub messenger: Migration,
}

/// One wire frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Wire {
    /// A messenger migration (or anti-messenger).
    Migrate(Migration),
    /// A remote node creation.
    Create(Box<CreateNode>),
    /// Remove the far half of a link (from a `delete` traversal).
    Unlink {
        /// Node holding the half to remove.
        node: NodeRef,
        /// Link instance.
        inst: LinkInstance,
    },
    /// GVT protocol traffic.
    Gvt(CtrlMsg),
    /// Local prod for the coordinator daemon to begin a GVT round
    /// (issued by the platform's interval timer; never crosses the
    /// network).
    GvtKick,
    /// Reliable-transport envelope: `frame` is the `seq`-th payload frame
    /// on the `src → dst` channel. Only present when the cluster runs
    /// with an active fault plan; the receiver acks every copy and
    /// delivers each sequence number exactly once.
    Data {
        /// The channel's original *sender*. Normally the transmitting
        /// daemon itself; after a failover the successor keeps sending on
        /// the dead daemon's adopted channels with `src` still naming the
        /// dead originator, and the ack routes to whichever daemon
        /// currently owns `src`.
        src: DaemonId,
        /// The channel's original *receiver*: the daemon the frame was
        /// first addressed to. Normally the physical destination; after a
        /// failover it names the dead daemon whose receive channel the
        /// successor has taken over, so sequencing survives re-homing.
        chan: DaemonId,
        /// Per-(sender, channel) sequence number, starting at 1.
        seq: u64,
        /// The enveloped payload frame (never itself `Data` or `Ack`).
        frame: Box<Wire>,
    },
    /// Transport acknowledgement for a [`Wire::Data`] frame. The ack
    /// names the *channel* `(src, chan)` it credits, not the daemons it
    /// physically travels between: it routes to whoever currently owns
    /// `src`.
    Ack {
        /// The acked channel's original sender (mirrors
        /// [`Wire::Data::src`]).
        src: DaemonId,
        /// The acked channel's original receiver (mirrors
        /// [`Wire::Data::chan`]).
        chan: DaemonId,
        /// Highest sequence number delivered with no gaps (cumulative
        /// ack): everything `<= cum` is acknowledged at once.
        cum: u64,
        /// The sequence number whose arrival triggered this ack (may sit
        /// above a gap; acknowledged individually).
        seq: u64,
    },
    /// Failure-detector heartbeat. Deliberately *not* enveloped in
    /// [`Wire::Data`]: a lost heartbeat is itself the failure signal, so
    /// retransmitting one would defeat the detector.
    Beat {
        /// The daemon asserting its liveness.
        from: DaemonId,
        /// Its current membership epoch.
        epoch: u64,
    },
    /// Membership change: `victim` has been declared permanently dead and
    /// its logical nodes re-homed to its successor. Broadcast by the
    /// successor (reliably — eviction must not be lost) after it restores
    /// the victim's checkpoint.
    Evict {
        /// The daemon declared dead.
        victim: DaemonId,
        /// Membership epoch after the eviction.
        epoch: u64,
        /// Minimum virtual time in the checkpoint the successor restored.
        /// The GVT coordinator substitutes this for the victim's report
        /// in the round the eviction lands in, so GVT can never advance
        /// past the resurrected messengers' restored virtual times.
        floor: Vt,
    },
    /// Consensus traffic for the decentralized control plane: one
    /// single-decree Paxos message (see `msgr_ctrl::quorum`). Like
    /// [`Wire::Beat`], deliberately *not* enveloped: loss is healed by
    /// the proposer re-proposing with a higher ballot on the next
    /// heartbeat tick, and retransmitting a stale ballot would only add
    /// noise the protocol already tolerates.
    Ctrl {
        /// The daemon that sent this message.
        from: DaemonId,
        /// The consensus message.
        msg: msgr_ctrl::PaxosMsg,
    },
    /// Anti-entropy gossip: a digest of the sender's control-plane
    /// knowledge (membership epoch, evictions, code-registry hash, GVT
    /// hint), pushed to one random peer per heartbeat tick. Unenveloped
    /// for the same reason as [`Wire::Beat`]: the next round re-covers
    /// anything a lost frame carried.
    Gossip {
        /// The daemon that sent this digest.
        from: DaemonId,
        /// `true` when this digest answers a push (the pull half);
        /// replies are never replied to, bounding an exchange at two
        /// frames.
        reply: bool,
        /// The sender's summarized knowledge.
        digest: msgr_ctrl::Digest,
    },
    /// Checkpoint replication: `owner`'s `ver`-th snapshot, pushed
    /// write-ahead to one of its `k` successor holders before the
    /// checkpointed flush effects are released. Exempt from fault
    /// injection — the durable-write path is reliable-or-fail-stop,
    /// mirroring a local disk write (see DESIGN.md §12).
    CkptPush {
        /// The daemon whose state is snapshotted.
        owner: DaemonId,
        /// Monotone snapshot version for `owner`.
        ver: u32,
        /// The encoded checkpoint.
        snapshot: Bytes,
    },
    /// A holder's acknowledgement that it durably installed a pushed
    /// replica (accounting/tracing only — the write-ahead path does not
    /// block on it).
    CkptAck {
        /// The snapshot's owner.
        owner: DaemonId,
        /// The holder that installed it.
        holder: DaemonId,
        /// The installed version.
        ver: u32,
    },
}

impl Wire {
    /// A short static label for this frame's kind — the vocabulary trace
    /// consumers and diagnostics use to talk about wire traffic. For
    /// transport envelopes this names the *payload* ("data:migrate"),
    /// since that is what the frame carries.
    pub fn kind(&self) -> &'static str {
        match self {
            Wire::Migrate(_) => "migrate",
            Wire::Create(_) => "create",
            Wire::Unlink { .. } => "unlink",
            Wire::Gvt(_) => "gvt",
            Wire::GvtKick => "gvt_kick",
            Wire::Data { frame, .. } => match frame.as_ref() {
                Wire::Migrate(_) => "data:migrate",
                Wire::Create(_) => "data:create",
                Wire::Unlink { .. } => "data:unlink",
                Wire::Gvt(_) => "data:gvt",
                _ => "data",
            },
            Wire::Ack { .. } => "ack",
            Wire::Beat { .. } => "beat",
            Wire::Evict { .. } => "evict",
            Wire::Ctrl { .. } => "ctrl",
            Wire::Gossip { .. } => "gossip",
            Wire::CkptPush { .. } => "ckpt_push",
            Wire::CkptAck { .. } => "ckpt_ack",
        }
    }

    /// Bytes this frame occupies on the network, given the per-message
    /// header overhead from the cost model.
    pub fn wire_bytes(&self, header: u64) -> u64 {
        match self {
            Wire::Migrate(m) => header + m.bytes.len() as u64 + m.code_bytes,
            Wire::Create(c) => {
                header + 48 + c.messenger.bytes.len() as u64 + c.messenger.code_bytes
            }
            Wire::Unlink { .. } => header + 16,
            Wire::Gvt(msg) => header + msg.wire_bytes(),
            Wire::GvtKick => 0,
            // The envelope rides on the payload frame's existing header:
            // only src + chan + seq are extra bytes.
            Wire::Data { frame, .. } => frame.wire_bytes(header) + 14,
            Wire::Ack { .. } => header + 22,
            Wire::Beat { .. } => header + 10,
            Wire::Evict { .. } => header + 18,
            Wire::Ctrl { msg, .. } => {
                let payload = match msg {
                    msgr_ctrl::PaxosMsg::Prepare { .. } | msgr_ctrl::PaxosMsg::Learn { .. } => 15,
                    msgr_ctrl::PaxosMsg::Promise { accepted: None, .. } => 16,
                    msgr_ctrl::PaxosMsg::Promise { accepted: Some(_), .. } => 32,
                    msgr_ctrl::PaxosMsg::AcceptReq { .. }
                    | msgr_ctrl::PaxosMsg::Accepted { .. } => 23,
                };
                header + 2 + payload
            }
            Wire::Gossip { digest, .. } => header + 3 + 20 + digest.evictions.len() as u64 * 10,
            Wire::CkptPush { snapshot, .. } => header + 6 + snapshot.len() as u64,
            Wire::CkptAck { .. } => header + 8,
        }
    }
}

// ---- frame codec -----------------------------------------------------------
//
// The threaded platform moves `Wire` values over in-process channels and
// the simulation platform only *accounts* their size, so neither needs a
// byte encoding to function. The codec exists so the frame format is
// pinned down (and property-tested) like the messenger format in
// `msgr_vm::wire`, and it is written on the same checked primitives
// (`msgr_vm::bytes`): a truncated or corrupted buffer yields
// `VmError::Decode`, never a panic.

fn put_daemon(buf: &mut BytesMut, d: DaemonId) {
    buf.put_varint(d.0.into());
}

fn get_daemon(buf: &mut Bytes) -> Result<DaemonId, VmError> {
    buf.read_u16().map(DaemonId)
}

pub(crate) fn put_endpoint(buf: &mut BytesMut, (d, n): (DaemonId, NodeRef)) {
    put_daemon(buf, d);
    put_node_ref(buf, n);
}

pub(crate) fn get_endpoint(buf: &mut Bytes) -> Result<(DaemonId, NodeRef), VmError> {
    Ok((get_daemon(buf)?, get_node_ref(buf)?))
}

pub(crate) fn put_node_ref(buf: &mut BytesMut, n: NodeRef) {
    buf.put_varint(n.creator.into());
    buf.put_varint(n.seq);
}

pub(crate) fn get_node_ref(buf: &mut Bytes) -> Result<NodeRef, VmError> {
    Ok(NodeRef { creator: buf.read_u16()?, seq: buf.read_varint()? })
}

/// The link a messenger arrived over, if any: a flag, then the instance.
pub(crate) fn put_via(buf: &mut BytesMut, via: Option<LinkInstance>) {
    buf.put_bool(via.is_some());
    if let Some(inst) = via {
        buf.put_varint(inst.0);
    }
}

pub(crate) fn get_via(buf: &mut Bytes) -> Result<Option<LinkInstance>, VmError> {
    Ok(if buf.read_bool()? { Some(LinkInstance(buf.read_varint()?)) } else { None })
}

fn put_migration(buf: &mut BytesMut, m: &Migration) {
    buf.put_varint(m.id.0);
    put_vt(buf, m.vtime);
    buf.put_varint(m.epoch);
    buf.put_bool(m.anti);
    put_endpoint(buf, m.to);
    put_via(buf, m.via);
    buf.put_bytes(&m.bytes);
    buf.put_varint(m.code_bytes);
}

fn get_migration(buf: &mut Bytes) -> Result<Migration, VmError> {
    Ok(Migration {
        id: MessengerId(buf.read_varint()?),
        vtime: get_vt(buf)?,
        epoch: buf.read_varint()?,
        anti: buf.read_bool()?,
        to: get_endpoint(buf)?,
        via: get_via(buf)?,
        bytes: buf.read_bytes()?,
        code_bytes: buf.read_varint()?,
    })
}

pub(crate) fn put_orient(buf: &mut BytesMut, o: Orient) {
    buf.put_u8(match o {
        Orient::Out => 0,
        Orient::In => 1,
        Orient::Undirected => 2,
    });
}

pub(crate) fn get_orient(buf: &mut Bytes) -> Result<Orient, VmError> {
    buf.read_tag("orient", &[Orient::Out, Orient::In, Orient::Undirected])
}

fn put_ctrl(buf: &mut BytesMut, msg: &CtrlMsg) {
    match msg {
        CtrlMsg::Cut { round } => {
            buf.put_u8(0);
            buf.put_varint(*round);
        }
        CtrlMsg::CutAck { round, daemon, lmin, prev_sent, prev_recv, late_min, cur_sent_min } => {
            buf.put_u8(1);
            buf.put_varint(*round);
            buf.put_varint((*daemon).into());
            put_vt(buf, *lmin);
            buf.put_varint(*prev_sent);
            buf.put_varint(*prev_recv);
            put_vt(buf, *late_min);
            put_vt(buf, *cur_sent_min);
        }
        CtrlMsg::Poll { round } => {
            buf.put_u8(2);
            buf.put_varint(*round);
        }
        CtrlMsg::PollAck { round, daemon, lmin, prev_recv, late_min, cur_sent_min } => {
            buf.put_u8(3);
            buf.put_varint(*round);
            buf.put_varint((*daemon).into());
            put_vt(buf, *lmin);
            buf.put_varint(*prev_recv);
            put_vt(buf, *late_min);
            put_vt(buf, *cur_sent_min);
        }
        CtrlMsg::Advance { gvt } => {
            buf.put_u8(4);
            put_vt(buf, *gvt);
        }
    }
}

fn get_ctrl(buf: &mut Bytes) -> Result<CtrlMsg, VmError> {
    Ok(match buf.read_u8()? {
        0 => CtrlMsg::Cut { round: buf.read_varint()? },
        1 => CtrlMsg::CutAck {
            round: buf.read_varint()?,
            daemon: buf.read_u16()?,
            lmin: get_vt(buf)?,
            prev_sent: buf.read_varint()?,
            prev_recv: buf.read_varint()?,
            late_min: get_vt(buf)?,
            cur_sent_min: get_vt(buf)?,
        },
        2 => CtrlMsg::Poll { round: buf.read_varint()? },
        3 => CtrlMsg::PollAck {
            round: buf.read_varint()?,
            daemon: buf.read_u16()?,
            lmin: get_vt(buf)?,
            prev_recv: buf.read_varint()?,
            late_min: get_vt(buf)?,
            cur_sent_min: get_vt(buf)?,
        },
        4 => CtrlMsg::Advance { gvt: get_vt(buf)? },
        t => return Err(VmError::Decode(format!("unknown ctrl tag {t}"))),
    })
}

// Control-plane payloads (`Wire::Ctrl`, `Wire::Gossip`) are laid out in
// fixed-width little-endian fields behind a varint byte length, which the
// decoder must consume exactly.

/// Cap on a digest's eviction list: far above any real cluster
/// (membership is u16), low enough to bound a hostile allocation.
const MAX_EVICTIONS: usize = 4096;

fn put_inst(buf: &mut BytesMut, inst: InstanceId) {
    buf.put_u16_le(inst.victim);
    buf.put_u32_le(inst.seq);
}

fn get_inst(buf: &mut Bytes) -> Result<InstanceId, VmError> {
    Ok(InstanceId { victim: buf.read_u16_le()?, seq: buf.read_u32_le()? })
}

fn put_decree(buf: &mut BytesMut, d: Decree) {
    buf.put_u16_le(d.victim);
    buf.put_u16_le(d.successor);
    buf.put_u32_le(d.epoch);
}

fn get_decree(buf: &mut Bytes) -> Result<Decree, VmError> {
    let (victim, successor) = (buf.read_u16_le()?, buf.read_u16_le()?);
    Ok(Decree { victim, successor, epoch: buf.read_u32_le()? })
}

/// A Paxos message: its byte length, a tag, the instance, then the
/// variant's ballot and decree.
fn put_paxos(buf: &mut BytesMut, m: &PaxosMsg) {
    let (len, tag, inst) = match *m {
        PaxosMsg::Prepare { inst, .. } => (15, 0, inst),
        PaxosMsg::Promise { inst, accepted: None, .. } => (16, 1, inst),
        PaxosMsg::Promise { inst, .. } => (32, 1, inst),
        PaxosMsg::AcceptReq { inst, .. } => (23, 2, inst),
        PaxosMsg::Accepted { inst, .. } => (23, 3, inst),
        PaxosMsg::Learn { inst, .. } => (15, 4, inst),
    };
    buf.put_varint(len);
    buf.put_u8(tag);
    put_inst(buf, inst);
    match *m {
        PaxosMsg::Prepare { ballot, .. } => buf.put_u64_le(ballot),
        PaxosMsg::Promise { ballot, accepted, .. } => {
            buf.put_u64_le(ballot);
            buf.put_bool(accepted.is_some());
            if let Some((b, d)) = accepted {
                buf.put_u64_le(b);
                put_decree(buf, d);
            }
        }
        PaxosMsg::AcceptReq { ballot, decree, .. } | PaxosMsg::Accepted { ballot, decree, .. } => {
            buf.put_u64_le(ballot);
            put_decree(buf, decree);
        }
        PaxosMsg::Learn { decree, .. } => put_decree(buf, decree),
    }
}

fn get_paxos(buf: &mut Bytes) -> Result<PaxosMsg, VmError> {
    let mut p = buf.read_bytes()?;
    let (tag, inst) = (p.read_u8()?, get_inst(&mut p)?);
    let m = match tag {
        0 => PaxosMsg::Prepare { inst, ballot: p.read_u64_le()? },
        1 => PaxosMsg::Promise {
            inst,
            ballot: p.read_u64_le()?,
            accepted: if p.read_bool()? {
                Some((p.read_u64_le()?, get_decree(&mut p)?))
            } else {
                None
            },
        },
        2 => PaxosMsg::AcceptReq { inst, ballot: p.read_u64_le()?, decree: get_decree(&mut p)? },
        3 => PaxosMsg::Accepted { inst, ballot: p.read_u64_le()?, decree: get_decree(&mut p)? },
        4 => PaxosMsg::Learn { inst, decree: get_decree(&mut p)? },
        t => return Err(VmError::Decode(format!("unknown paxos tag {t}"))),
    };
    p.finish("paxos payload")?;
    Ok(m)
}

/// A gossip digest: its byte length, the epoch, the counted evictions,
/// the code hash and the GVT hint.
fn put_digest(buf: &mut BytesMut, d: &Digest) {
    debug_assert!(d.evictions.len() <= MAX_EVICTIONS);
    let n = u16::try_from(d.evictions.len()).expect("victims are u16 daemon ids");
    buf.put_varint(22 + 10 * u64::from(n));
    buf.put_u32_le(d.mem_epoch);
    buf.put_u16_le(n);
    for &(victim, floor) in &d.evictions {
        buf.put_u16_le(victim);
        buf.put_f64(floor);
    }
    buf.put_u64_le(d.code_hash);
    buf.put_f64(d.gvt);
}

fn get_digest(buf: &mut Bytes) -> Result<Digest, VmError> {
    let mut p = buf.read_bytes()?;
    let (mem_epoch, n) = (p.read_u32_le()?, usize::from(p.read_u16_le()?));
    if n > MAX_EVICTIONS {
        return Err(VmError::Decode(format!("{n} evictions exceed the cap of {MAX_EVICTIONS}")));
    }
    let evictions = (0..n)
        .map(|_| Ok((p.read_u16_le()?, get_vt(&mut p)?.as_f64())))
        .collect::<Result<Vec<_>, VmError>>()?;
    let (code_hash, gvt) = (p.read_u64_le()?, get_vt(&mut p)?.as_f64());
    p.finish("gossip payload")?;
    Ok(Digest { mem_epoch, evictions, code_hash, gvt })
}

fn put_frame(buf: &mut BytesMut, w: &Wire) {
    match w {
        Wire::Migrate(m) => {
            buf.put_u8(0);
            put_migration(buf, m);
        }
        Wire::Create(c) => {
            buf.put_u8(1);
            put_node_ref(buf, c.gid);
            put_value(buf, &c.name);
            put_endpoint(buf, c.origin);
            put_value(buf, &c.origin_name);
            buf.put_varint(c.inst.0);
            put_value(buf, &c.link_name);
            put_orient(buf, c.orient_at_new);
            put_migration(buf, &c.messenger);
        }
        Wire::Unlink { node, inst } => {
            buf.put_u8(2);
            put_node_ref(buf, *node);
            buf.put_varint(inst.0);
        }
        Wire::Gvt(msg) => {
            buf.put_u8(3);
            put_ctrl(buf, msg);
        }
        Wire::GvtKick => buf.put_u8(4),
        Wire::Data { src, chan, seq, frame } => {
            buf.put_u8(5);
            put_daemon(buf, *src);
            put_daemon(buf, *chan);
            buf.put_varint(*seq);
            put_frame(buf, frame);
        }
        Wire::Ack { src, chan, cum, seq } => {
            buf.put_u8(6);
            put_daemon(buf, *src);
            put_daemon(buf, *chan);
            buf.put_varint(*cum);
            buf.put_varint(*seq);
        }
        Wire::Beat { from, epoch } => {
            buf.put_u8(7);
            put_daemon(buf, *from);
            buf.put_varint(*epoch);
        }
        Wire::Evict { victim, epoch, floor } => {
            buf.put_u8(8);
            put_daemon(buf, *victim);
            buf.put_varint(*epoch);
            put_vt(buf, *floor);
        }
        Wire::Ctrl { from, msg } => {
            buf.put_u8(10);
            put_daemon(buf, *from);
            put_paxos(buf, msg);
        }
        Wire::Gossip { from, reply, digest } => {
            buf.put_u8(11);
            put_daemon(buf, *from);
            buf.put_bool(*reply);
            put_digest(buf, digest);
        }
        Wire::CkptPush { owner, ver, snapshot } => {
            buf.put_u8(12);
            put_daemon(buf, *owner);
            buf.put_varint((*ver).into());
            buf.put_bytes(snapshot);
        }
        Wire::CkptAck { owner, holder, ver } => {
            buf.put_u8(13);
            put_daemon(buf, *owner);
            put_daemon(buf, *holder);
            buf.put_varint((*ver).into());
        }
    }
}

/// Decode one frame. Transport frames nest one level at most:
/// `in_data` is set for the payload of a [`Wire::Data`] envelope, where
/// another `Data` or an `Ack` is malformed. Tag 9 is unassigned and
/// must stay rejected, not reused (`tests/wire_format.rs` holds it).
fn get_frame(buf: &mut Bytes, in_data: bool) -> Result<Wire, VmError> {
    Ok(match buf.read_u8()? {
        0 => Wire::Migrate(get_migration(buf)?),
        1 => Wire::Create(Box::new(CreateNode {
            gid: get_node_ref(buf)?,
            name: get_value(buf)?,
            origin: get_endpoint(buf)?,
            origin_name: get_value(buf)?,
            inst: LinkInstance(buf.read_varint()?),
            link_name: get_value(buf)?,
            orient_at_new: get_orient(buf)?,
            messenger: get_migration(buf)?,
        })),
        2 => Wire::Unlink { node: get_node_ref(buf)?, inst: LinkInstance(buf.read_varint()?) },
        3 => Wire::Gvt(get_ctrl(buf)?),
        4 => Wire::GvtKick,
        5 => {
            if in_data {
                return Err(VmError::Decode("nested transport envelope".to_string()));
            }
            Wire::Data {
                src: get_daemon(buf)?,
                chan: get_daemon(buf)?,
                seq: buf.read_varint()?,
                frame: Box::new(get_frame(buf, true)?),
            }
        }
        6 => {
            if in_data {
                return Err(VmError::Decode("ack inside transport envelope".to_string()));
            }
            Wire::Ack {
                src: get_daemon(buf)?,
                chan: get_daemon(buf)?,
                cum: buf.read_varint()?,
                seq: buf.read_varint()?,
            }
        }
        7 => Wire::Beat { from: get_daemon(buf)?, epoch: buf.read_varint()? },
        8 => {
            Wire::Evict { victim: get_daemon(buf)?, epoch: buf.read_varint()?, floor: get_vt(buf)? }
        }
        10 => Wire::Ctrl { from: get_daemon(buf)?, msg: get_paxos(buf)? },
        11 => Wire::Gossip {
            from: get_daemon(buf)?,
            reply: buf.read_bool()?,
            digest: get_digest(buf)?,
        },
        12 => Wire::CkptPush {
            owner: get_daemon(buf)?,
            ver: buf.read_u32()?,
            snapshot: buf.read_bytes()?,
        },
        13 => Wire::CkptAck {
            owner: get_daemon(buf)?,
            holder: get_daemon(buf)?,
            ver: buf.read_u32()?,
        },
        t => return Err(VmError::Decode(format!("unknown frame tag {t}"))),
    })
}

/// Serialize a frame.
pub fn encode_frame(w: &Wire) -> Bytes {
    let mut buf = BytesMut::with_capacity(32);
    put_frame(&mut buf, w);
    buf.freeze()
}

/// Decode a frame.
///
/// # Errors
///
/// [`VmError::Decode`] on any malformed input, including trailing bytes
/// and transport frames nested inside a [`Wire::Data`] envelope.
pub fn decode_frame(mut buf: Bytes) -> Result<Wire, VmError> {
    let w = get_frame(&mut buf, false)?;
    buf.finish("frame")?;
    Ok(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mig(payload: usize, code: u64) -> Migration {
        Migration {
            id: MessengerId(1),
            vtime: Vt::ZERO,
            epoch: 0,
            anti: false,
            to: (DaemonId(1), NodeRef::new(0, 0)),
            via: None,
            bytes: Bytes::from(vec![0u8; payload]),
            code_bytes: code,
        }
    }

    #[test]
    fn migrate_bytes_include_payload_and_code() {
        assert_eq!(Wire::Migrate(mig(100, 0)).wire_bytes(64), 164);
        assert_eq!(Wire::Migrate(mig(100, 500)).wire_bytes(64), 664);
    }

    #[test]
    fn kind_labels_name_the_payload() {
        assert_eq!(Wire::Migrate(mig(1, 0)).kind(), "migrate");
        assert_eq!(Wire::GvtKick.kind(), "gvt_kick");
        let data = Wire::Data {
            src: DaemonId(0),
            chan: DaemonId(1),
            seq: 1,
            frame: Box::new(Wire::Migrate(mig(1, 0))),
        };
        assert_eq!(data.kind(), "data:migrate");
        let ack = Wire::Ack { src: DaemonId(0), chan: DaemonId(1), cum: 1, seq: 1 };
        assert_eq!(ack.kind(), "ack");
    }

    #[test]
    fn control_frames_are_small() {
        let unlink = Wire::Unlink { node: NodeRef::new(0, 0), inst: LinkInstance(1) };
        assert!(unlink.wire_bytes(64) < 128);
        let gvt = Wire::Gvt(CtrlMsg::Cut { round: 3 });
        assert!(gvt.wire_bytes(64) < 128);
    }

    #[test]
    fn create_bytes_include_messenger() {
        let c = CreateNode {
            gid: NodeRef::new(0, 1),
            name: Value::str("a"),
            origin: (DaemonId(0), NodeRef::new(0, 0)),
            origin_name: Value::str("init"),
            inst: LinkInstance(9),
            link_name: Value::Null,
            orient_at_new: Orient::In,
            messenger: mig(200, 0),
        };
        assert_eq!(Wire::Create(Box::new(c)).wire_bytes(64), 64 + 48 + 200);
    }

    fn sample_frames() -> Vec<Wire> {
        let mut m = mig(5, 7);
        m.via = Some(LinkInstance(99));
        m.anti = true;
        vec![
            Wire::Migrate(mig(0, 0)),
            Wire::Migrate(m),
            Wire::Create(Box::new(CreateNode {
                gid: NodeRef::new(3, 11),
                name: Value::str("worker"),
                origin: (DaemonId(2), NodeRef::new(2, 4)),
                origin_name: Value::Null,
                inst: LinkInstance(17),
                link_name: Value::str("ring"),
                orient_at_new: Orient::Undirected,
                messenger: mig(32, 100),
            })),
            Wire::Unlink { node: NodeRef::new(1, 2), inst: LinkInstance(u64::MAX) },
            Wire::Gvt(CtrlMsg::Cut { round: 9 }),
            Wire::Gvt(CtrlMsg::CutAck {
                round: 9,
                daemon: 3,
                lmin: Vt::new(1.5),
                prev_sent: 10,
                prev_recv: 8,
                late_min: Vt::new(f64::INFINITY),
                cur_sent_min: Vt::new(2.25),
            }),
            Wire::Gvt(CtrlMsg::Poll { round: 10 }),
            Wire::Gvt(CtrlMsg::PollAck {
                round: 10,
                daemon: 0,
                lmin: Vt::new(0.0),
                prev_recv: 10,
                late_min: Vt::new(3.0),
                cur_sent_min: Vt::new(f64::INFINITY),
            }),
            Wire::Gvt(CtrlMsg::Advance { gvt: Vt::new(4.125) }),
            Wire::GvtKick,
            Wire::Data {
                src: DaemonId(3),
                chan: DaemonId(5),
                seq: 1,
                frame: Box::new(Wire::Migrate(mig(16, 0))),
            },
            Wire::Data {
                src: DaemonId(0),
                chan: DaemonId(0),
                seq: u64::MAX,
                frame: Box::new(Wire::Gvt(CtrlMsg::Poll { round: 2 })),
            },
            Wire::Ack { src: DaemonId(7), chan: DaemonId(7), cum: 41, seq: 44 },
            Wire::Beat { from: DaemonId(4), epoch: 2 },
            Wire::Evict { victim: DaemonId(1), epoch: 3, floor: Vt::new(7.5) },
            Wire::Evict { victim: DaemonId(6), epoch: 1, floor: Vt::INFINITY },
            Wire::Ctrl {
                from: DaemonId(1),
                msg: msgr_ctrl::PaxosMsg::Prepare {
                    inst: msgr_ctrl::InstanceId { victim: 2, seq: 0 },
                    ballot: msgr_ctrl::ballot(1, 1),
                },
            },
            Wire::Ctrl {
                from: DaemonId(3),
                msg: msgr_ctrl::PaxosMsg::Promise {
                    inst: msgr_ctrl::InstanceId { victim: 2, seq: 1 },
                    ballot: msgr_ctrl::ballot(4, 0),
                    accepted: Some((
                        msgr_ctrl::ballot(2, 3),
                        msgr_ctrl::Decree { victim: 2, successor: 3, epoch: 5 },
                    )),
                },
            },
            Wire::Ctrl {
                from: DaemonId(0),
                msg: msgr_ctrl::PaxosMsg::Learn {
                    inst: msgr_ctrl::InstanceId { victim: 5, seq: 0 },
                    decree: msgr_ctrl::Decree { victim: 5, successor: 6, epoch: 1 },
                },
            },
            Wire::Ctrl {
                from: DaemonId(2),
                msg: PaxosMsg::Promise {
                    inst: InstanceId { victim: 0, seq: 0 },
                    ballot: 1,
                    accepted: None,
                },
            },
            Wire::Ctrl {
                from: DaemonId(1),
                msg: PaxosMsg::AcceptReq {
                    inst: InstanceId { victim: 7, seq: 3 },
                    ballot: 9,
                    decree: Decree { victim: 7, successor: 1, epoch: 2 },
                },
            },
            Wire::Ctrl {
                from: DaemonId(0),
                msg: PaxosMsg::Accepted {
                    inst: InstanceId { victim: 7, seq: 3 },
                    ballot: 9,
                    decree: Decree { victim: 7, successor: 1, epoch: 2 },
                },
            },
            Wire::Gossip {
                from: DaemonId(2),
                reply: false,
                digest: msgr_ctrl::Digest {
                    mem_epoch: 0,
                    evictions: vec![],
                    code_hash: 0x9E37_79B9,
                    gvt: 0.0,
                },
            },
            Wire::Gossip {
                from: DaemonId(6),
                reply: true,
                digest: msgr_ctrl::Digest {
                    mem_epoch: 2,
                    evictions: vec![(1, 3.5), (4, f64::INFINITY)],
                    code_hash: u64::MAX,
                    gvt: 12.25,
                },
            },
            Wire::CkptPush { owner: DaemonId(3), ver: 7, snapshot: Bytes::from(vec![9u8; 40]) },
            Wire::CkptPush { owner: DaemonId(0), ver: 0, snapshot: Bytes::new() },
            Wire::CkptAck { owner: DaemonId(3), holder: DaemonId(4), ver: 7 },
        ]
    }

    #[test]
    fn data_envelope_adds_fixed_overhead() {
        let inner = Wire::Migrate(mig(100, 0));
        let enveloped = Wire::Data {
            src: DaemonId(0),
            chan: DaemonId(1),
            seq: 9,
            frame: Box::new(inner.clone()),
        };
        assert_eq!(enveloped.wire_bytes(64), inner.wire_bytes(64) + 14);
        let ack = Wire::Ack { src: DaemonId(0), chan: DaemonId(0), cum: 1, seq: 1 };
        assert!(ack.wire_bytes(64) < 128, "acks must stay cheap");
        let beat = Wire::Beat { from: DaemonId(0), epoch: 0 };
        assert!(beat.wire_bytes(64) < 128, "heartbeats must stay cheap");
    }

    #[test]
    fn nested_transport_frames_rejected() {
        let inner = Wire::Data {
            src: DaemonId(0),
            chan: DaemonId(1),
            seq: 1,
            frame: Box::new(Wire::GvtKick),
        };
        let outer =
            Wire::Data { src: DaemonId(1), chan: DaemonId(0), seq: 2, frame: Box::new(inner) };
        assert!(decode_frame(encode_frame(&outer)).is_err(), "Data in Data must not decode");
        let ack_in_data = Wire::Data {
            src: DaemonId(1),
            chan: DaemonId(0),
            seq: 2,
            frame: Box::new(Wire::Ack { src: DaemonId(0), chan: DaemonId(1), cum: 0, seq: 0 }),
        };
        assert!(decode_frame(encode_frame(&ack_in_data)).is_err(), "Ack in Data must not decode");
    }

    #[test]
    fn frame_codec_round_trips_every_variant() {
        for w in sample_frames() {
            let bytes = encode_frame(&w);
            let back = decode_frame(bytes).unwrap();
            assert_eq!(back, w, "round trip failed for {w:?}");
        }
    }

    #[test]
    fn control_plane_frames_stay_cheap() {
        let ctrl = Wire::Ctrl {
            from: DaemonId(1),
            msg: msgr_ctrl::PaxosMsg::Prepare {
                inst: msgr_ctrl::InstanceId { victim: 2, seq: 0 },
                ballot: msgr_ctrl::ballot(1, 1),
            },
        };
        assert!(ctrl.wire_bytes(64) < 128, "consensus frames must stay cheap");
        let gossip = Wire::Gossip {
            from: DaemonId(0),
            reply: false,
            digest: msgr_ctrl::Digest {
                mem_epoch: 1,
                evictions: vec![(1, 0.5)],
                code_hash: 1,
                gvt: 0.0,
            },
        };
        assert!(gossip.wire_bytes(64) < 128, "gossip digests must stay cheap");
        let ack = Wire::CkptAck { owner: DaemonId(0), holder: DaemonId(1), ver: 1 };
        assert!(ack.wire_bytes(64) < 128, "replica acks must stay cheap");
        let push =
            Wire::CkptPush { owner: DaemonId(0), ver: 1, snapshot: Bytes::from(vec![0; 100]) };
        assert!(push.wire_bytes(64) >= 164, "pushes account the snapshot bytes");
    }

    fn control_frames() -> Vec<Wire> {
        let mut frames = sample_frames();
        frames.retain(|w| matches!(w, Wire::Ctrl { .. } | Wire::Gossip { .. }));
        frames
    }

    /// `w` (a control frame) encoded with its payload edited by `edit`
    /// and length-prefixed again, so only the payload decoder sees the
    /// damage.
    fn with_payload(w: &Wire, edit: impl FnOnce(&mut Vec<u8>)) -> Bytes {
        let mut b = encode_frame(w);
        let mut raw = BytesMut::new();
        let tag = b.read_u8().unwrap();
        raw.put_u8(tag);
        raw.put_varint(b.read_varint().unwrap());
        if tag == 11 {
            raw.put_bool(b.read_bool().unwrap());
        }
        let mut payload = b.read_bytes().unwrap().to_vec();
        edit(&mut payload);
        raw.put_bytes(&payload);
        raw.freeze()
    }

    fn decode_error(raw: Bytes) -> String {
        match decode_frame(raw) {
            Err(VmError::Decode(msg)) => msg,
            other => panic!("expected a decode error, got {other:?}"),
        }
    }

    #[test]
    fn control_payloads_reject_every_truncation() {
        for w in control_frames() {
            let full = encode_frame(&w);
            assert_eq!(with_payload(&w, |_| {}), full, "{w:?}");
            for cut in 0..full.len() {
                assert!(decode_frame(full.slice(..cut)).is_err(), "{w:?} frame cut at {cut}");
            }
            let mut len = 0;
            with_payload(&w, |p| len = p.len());
            for cut in 0..len {
                let raw = with_payload(&w, |p| p.truncate(cut));
                assert!(decode_frame(raw).is_err(), "{w:?} payload cut at {cut}");
            }
        }
    }

    #[test]
    fn control_payload_trailing_bytes_rejected() {
        for w in control_frames() {
            let msg = decode_error(with_payload(&w, |p| p.push(0)));
            assert!(msg.contains("trailing"), "{w:?}: {msg}");
        }
    }

    #[test]
    fn paxos_tags_and_flags_are_strict() {
        let frames = control_frames();
        let find = |pick: fn(&PaxosMsg) -> bool| {
            frames.iter().find(|w| matches!(w, Wire::Ctrl { msg, .. } if pick(msg))).unwrap()
        };
        let prepare = find(|m| matches!(m, PaxosMsg::Prepare { .. }));
        let msg = decode_error(with_payload(prepare, |p| p[0] = 9));
        assert!(msg.contains("unknown paxos tag 9"), "{msg}");
        let promise = find(|m| matches!(m, PaxosMsg::Promise { accepted: None, .. }));
        let msg = decode_error(with_payload(promise, |p| *p.last_mut().unwrap() = 2));
        assert!(msg.contains("flag byte 2"), "{msg}");
    }

    #[test]
    fn digest_nans_and_oversized_counts_are_rejected() {
        let gossip = Wire::Gossip {
            from: DaemonId(1),
            reply: false,
            digest: Digest { mem_epoch: 1, evictions: vec![(3, 0.5)], code_hash: 0, gvt: 0.0 },
        };
        let mut nan = BytesMut::new();
        nan.put_f64(f64::NAN);
        // epoch (4), count (2), victim (2), then the floor's 8 bytes.
        let msg = decode_error(with_payload(&gossip, |p| p[8..16].copy_from_slice(&nan)));
        assert!(msg.contains("NaN"), "floor: {msg}");
        let msg = decode_error(with_payload(&gossip, |p| {
            let gvt = p.len() - 8;
            p[gvt..].copy_from_slice(&nan);
        }));
        assert!(msg.contains("NaN"), "gvt: {msg}");
        // A count past the cap is refused from the epoch and count alone,
        // before anything is allocated or read for its elements.
        for count in [MAX_EVICTIONS + 1, usize::from(u16::MAX)] {
            let mut head = BytesMut::new();
            head.put_u32_le(1);
            head.put_u16_le(u16::try_from(count).unwrap());
            let msg = decode_error(with_payload(&gossip, |p| *p = head.to_vec()));
            assert!(msg.contains("exceed the cap"), "{msg}");
        }
    }

    #[test]
    fn frame_trailing_garbage_rejected() {
        let mut raw = encode_frame(&Wire::GvtKick).to_vec();
        raw.push(0);
        assert!(decode_frame(Bytes::from(raw)).is_err());
    }
}

//! Checkpoints: the snapshot byte format, and where snapshots survive
//! their owner.
//!
//! The recovery model is pessimistic (output-commit): a daemon's durable
//! effects are released only together with a snapshot that can replay
//! them, so the store is the single source of truth after a permanent
//! death. `Snapshot` is the one place that knows how a daemon's durable
//! state is laid out in bytes — writer and reader side by side. The
//! simulation platform keeps snapshots `k`-replicated in host memory that
//! outlives the simulated daemons ([`ReplicatedStore`]); the threads
//! platform rejects every fault plan and takes no checkpoints.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use msgr_vm::bytes::{Bytes, BytesMut};
use msgr_vm::{wire as vmwire, LinkInstance, MessengerState, VmError, Vt};

use crate::ids::{DaemonId, NodeRef};
use crate::logical::{LinkRec, LogicalNode};
use crate::wire as wirecodec;
use crate::xport::Channels;

/// Snapshot format version.
const VERSION: u8 = 1;

/// A daemon's durable state as one checkpoint holds it. Borrowed from
/// the live daemon when written, owned when read back.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Snapshot<'a> {
    /// The id counters: next node, link and messenger sequence numbers,
    /// and the `create` round-robin cursor.
    pub(crate) counters: [u64; 4],
    /// Logical nodes with their variables and links, in any order.
    pub(crate) nodes: Vec<Cow<'a, LogicalNode>>,
    /// Every parked or queued messenger, in dequeue order: the node it is
    /// at, the link it arrived on, and its state.
    pub(crate) parked: Vec<(NodeRef, Option<LinkInstance>, Cow<'a, MessengerState>)>,
    /// The transport channels; `None` when the transport is off.
    pub(crate) channels: Option<Cow<'a, Channels>>,
}

fn put_node(buf: &mut BytesMut, n: &LogicalNode) {
    wirecodec::put_node_ref(buf, n.gid);
    vmwire::put_value(buf, &n.name);
    let mut keys: Vec<&Arc<str>> = n.vars.keys().collect();
    keys.sort();
    buf.put_seq(keys.into_iter(), |buf, k| {
        buf.put_str(k);
        vmwire::put_value(buf, &n.vars[k]);
    });
    buf.put_seq(n.links.iter(), |buf, l| {
        buf.put_varint(l.inst.0);
        vmwire::put_value(buf, &l.name);
        wirecodec::put_orient(buf, l.orient);
        wirecodec::put_endpoint(buf, l.peer);
        vmwire::put_value(buf, &l.peer_name);
    });
}

fn get_node(buf: &mut Bytes) -> Result<LogicalNode, VmError> {
    let mut node = LogicalNode::new(wirecodec::get_node_ref(buf)?, vmwire::get_value(buf)?);
    let vars = buf.read_seq(vmwire::MAX_SEQ, |buf| {
        Ok((Arc::from(buf.read_str()?), vmwire::get_value(buf)?))
    })?;
    node.vars.extend(vars);
    node.links = buf.read_seq(vmwire::MAX_SEQ, |buf| {
        Ok(LinkRec {
            inst: LinkInstance(buf.read_varint()?),
            name: vmwire::get_value(buf)?,
            orient: wirecodec::get_orient(buf)?,
            peer: wirecodec::get_endpoint(buf)?,
            peer_name: vmwire::get_value(buf)?,
        })
    })?;
    Ok(node)
}

#[deny(clippy::cast_possible_truncation)]
impl Snapshot<'_> {
    /// Serialize canonically: nodes ordered by id, variables by name, so
    /// equal states yield equal bytes.
    pub(crate) fn encode(mut self) -> Bytes {
        let mut buf = BytesMut::with_capacity(1024);
        buf.put_u8(VERSION);
        for c in self.counters {
            buf.put_varint(c);
        }
        self.nodes.sort_by_key(|n| n.gid);
        buf.put_seq(self.nodes.iter(), |buf, n| put_node(buf, n));
        buf.put_seq(self.parked.iter(), |buf, (at, last, state)| {
            wirecodec::put_node_ref(buf, *at);
            wirecodec::put_via(buf, *last);
            buf.put_bytes(&vmwire::encode_messenger(state));
        });
        buf.put_bool(self.channels.is_some());
        if let Some(channels) = &self.channels {
            channels.put(&mut buf);
        }
        buf.freeze()
    }

    /// The inverse of [`Snapshot::encode`].
    ///
    /// # Errors
    ///
    /// [`VmError::Decode`] on an unknown version or any malformed input,
    /// trailing bytes included.
    pub(crate) fn decode(mut buf: Bytes) -> Result<Snapshot<'static>, VmError> {
        let ver = buf.read_u8()?;
        if ver != VERSION {
            return Err(VmError::Decode(format!("unknown checkpoint version {ver}")));
        }
        let mut counters = [0; 4];
        for c in &mut counters {
            *c = buf.read_varint()?;
        }
        let nodes = buf.read_seq(vmwire::MAX_SEQ, |buf| get_node(buf).map(Cow::Owned))?;
        let parked = buf.read_seq(vmwire::MAX_SEQ, |buf| {
            Ok((
                wirecodec::get_node_ref(buf)?,
                wirecodec::get_via(buf)?,
                Cow::Owned(vmwire::decode_messenger(buf.read_bytes()?)?),
            ))
        })?;
        let channels =
            if buf.read_bool()? { Some(Cow::Owned(Channels::get(&mut buf)?)) } else { None };
        buf.finish("checkpoint")?;
        Ok(Snapshot { counters, nodes, parked, channels })
    }

    /// The minimum virtual time a restore of this snapshot resurrects:
    /// every parked messenger plus every frame its channels retain.
    pub(crate) fn floor(&self) -> Vt {
        let parked = self.parked.iter().map(|(_, _, m)| m.vtime).fold(Vt::INFINITY, Vt::min);
        let floor = |c: &Cow<Channels>| c.floor_of_unacked().min(c.floor_of_held());
        self.channels.as_ref().map_or(parked, |c| parked.min(floor(c)))
    }
}

/// `k`-replicated snapshot storage: every snapshot version is held by up
/// to `k` *holder* daemons (the owner's next-alive successors) plus the
/// owner itself, and a holder's copies die with it —
/// [`ReplicatedStore::fail`] models the loss of everything a dead daemon
/// held. Recovery reads the highest-version copy on a *live* holder, so
/// it survives losing the victim and up to `k - 1` replica holders in the
/// same fault plan.
#[derive(Debug, Default)]
pub struct ReplicatedStore {
    /// `(owner, holder) → (version, snapshot)`; only the latest version
    /// per holder is kept (the last-checkpoint discipline).
    replicas: HashMap<(u16, u16), (u32, Bytes)>,
    /// Holders that died; their copies are gone.
    failed: Vec<u16>,
}

impl ReplicatedStore {
    /// Install version `ver` of `owner`'s snapshot on `holder`. Stale
    /// versions (≤ the holder's current one) are ignored; installs on a
    /// failed holder are dropped — a dead daemon accepts nothing.
    pub fn install(&mut self, owner: DaemonId, holder: DaemonId, ver: u32, snapshot: Bytes) {
        if self.failed.contains(&holder.0) {
            return;
        }
        let slot = self.replicas.entry((owner.0, holder.0)).or_insert((0, Bytes::new()));
        if ver >= slot.0 {
            *slot = (ver, snapshot);
        }
    }

    /// The version of `owner`'s snapshot currently held by `holder`, if
    /// any. Platforms use this to skip pushes that would re-install what
    /// a holder already has — the idempotence that lets the periodic
    /// checkpoint cadence quiesce once nothing changes.
    pub fn held_version(&self, owner: DaemonId, holder: DaemonId) -> Option<u32> {
        self.replicas.get(&(owner.0, holder.0)).map(|&(v, _)| v)
    }

    /// `true` iff `owner`'s own copy is byte-identical to `snapshot` —
    /// i.e. a new checkpoint would change nothing.
    pub fn unchanged(&self, owner: DaemonId, snapshot: &Bytes) -> bool {
        self.replicas.get(&(owner.0, owner.0)).is_some_and(|(_, b)| b == snapshot)
    }

    /// Holder `d` died: every copy it held is lost, and it accepts no
    /// further installs.
    pub fn fail(&mut self, d: DaemonId) {
        if !self.failed.contains(&d.0) {
            self.failed.push(d.0);
        }
        self.replicas.retain(|&(_, holder), _| holder != d.0);
    }

    /// The best surviving copy of `owner`'s snapshot: highest version on
    /// any live holder, ties broken toward the lowest holder id (so
    /// every daemon computing this picks the same copy).
    pub fn best(&self, owner: DaemonId) -> Option<(u32, Bytes)> {
        let mut best: Option<(u32, u16, &Bytes)> = None;
        for (&(o, holder), &(ver, ref snap)) in &self.replicas {
            if o != owner.0 {
                continue;
            }
            let better = match best {
                None => true,
                Some((bv, bh, _)) => ver > bv || (ver == bv && holder < bh),
            };
            if better {
                best = Some((ver, holder, snap));
            }
        }
        best.map(|(ver, _, snap)| (ver, snap.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_canonically() {
        let program = msgr_lang::compile("main() { M_sched_time_abs(2.5); }").unwrap();
        let mut state = MessengerState::launch(&program, msgr_vm::MessengerId(7), &[]).unwrap();
        state.vtime = Vt::new(2.5);
        let mut nodes: Vec<LogicalNode> = (1..=3)
            .map(|i| LogicalNode::new(NodeRef::new(0, i), msgr_vm::Value::Int(i as i64)))
            .collect();
        nodes[1].set_var("b", msgr_vm::Value::Bool(true));
        nodes[1].set_var("a", msgr_vm::Value::str("x"));
        nodes[1].links.push(LinkRec {
            inst: LinkInstance(5),
            name: msgr_vm::Value::Null,
            orient: crate::logical::Orient::In,
            peer: (DaemonId(2), NodeRef::new(2, 9)),
            peer_name: msgr_vm::Value::str("far"),
        });
        for channels in [None, Some(Cow::Owned(Channels::default()))] {
            let snap = Snapshot {
                counters: [3, 5, 7, 1],
                nodes: nodes.iter().map(Cow::Borrowed).collect(),
                parked: vec![(nodes[2].gid, Some(LinkInstance(5)), Cow::Borrowed(&state))],
                channels,
            };
            let bytes = snap.clone().encode();
            let back = Snapshot::decode(bytes.clone()).expect("decodes");
            assert_eq!(back, snap, "decode(encode(x)) = x");
            assert_eq!(back.floor(), Vt::new(2.5));
            assert_eq!(back.encode().as_ref(), bytes.as_ref(), "encode(decode(b)) = b");
            // Node order is not part of the state: the bytes are canonical.
            let mut shuffled = snap.clone();
            shuffled.nodes.reverse();
            assert_eq!(shuffled.encode().as_ref(), bytes.as_ref());
            // A trailing byte or another version is refused.
            let mut long = bytes.as_ref().to_vec();
            long.push(0);
            assert!(Snapshot::decode(long.into()).is_err());
            let mut other = bytes.as_ref().to_vec();
            other[0] = VERSION + 1;
            assert!(Snapshot::decode(other.into()).is_err());
        }
    }

    #[test]
    fn replicated_store_survives_holder_loss() {
        let mut s = ReplicatedStore::default();
        let owner = DaemonId(2);
        // Version 1 on the owner itself and holders 3 and 4 (k = 2).
        s.install(owner, DaemonId(2), 1, Bytes::from(vec![1]));
        s.install(owner, DaemonId(3), 1, Bytes::from(vec![1]));
        s.install(owner, DaemonId(4), 1, Bytes::from(vec![1]));
        // Version 2 reached only the owner and holder 3.
        s.install(owner, DaemonId(2), 2, Bytes::from(vec![2]));
        s.install(owner, DaemonId(3), 2, Bytes::from(vec![2]));
        assert_eq!(s.best(owner).unwrap(), (2, Bytes::from(vec![2])));
        // The owner dies: its own copy is gone, holder 3 has v2.
        s.fail(DaemonId(2));
        assert_eq!(s.best(owner).unwrap(), (2, Bytes::from(vec![2])));
        // Holder 3 dies too: fall back to holder 4's v1.
        s.fail(DaemonId(3));
        assert_eq!(s.best(owner).unwrap(), (1, Bytes::from(vec![1])));
        // A push to a dead holder is dropped, and stale versions lose.
        s.install(owner, DaemonId(3), 9, Bytes::from(vec![9]));
        s.install(owner, DaemonId(4), 0, Bytes::from(vec![0]));
        assert_eq!(s.best(owner).unwrap(), (1, Bytes::from(vec![1])));
        // Last holder dies: nothing survives anywhere.
        s.fail(DaemonId(4));
        assert!(s.best(owner).is_none());
    }

    #[test]
    fn replicated_store_ties_break_toward_lowest_holder() {
        let mut s = ReplicatedStore::default();
        let owner = DaemonId(0);
        s.install(owner, DaemonId(5), 3, Bytes::from(vec![5]));
        s.install(owner, DaemonId(1), 3, Bytes::from(vec![1]));
        s.install(owner, DaemonId(3), 3, Bytes::from(vec![3]));
        assert_eq!(s.best(owner).unwrap(), (3, Bytes::from(vec![1])));
    }
}

//! Property tests for the inter-daemon frame codec.

use msgr_check::{check, codec_corruption, prop_assert_eq, Source};
use msgr_core::wire::{decode_frame, encode_frame, CreateNode, Migration, Wire};
use msgr_core::{DaemonId, NodeRef};
use msgr_ctrl::{Decree, Digest, InstanceId, PaxosMsg};
use msgr_gvt::CtrlMsg;
use msgr_vm::{Bytes, LinkInstance, MessengerId, Value, Vt};

fn arb_vt(s: &mut Source) -> Vt {
    if s.bool_with(0.1) {
        Vt::new(f64::INFINITY)
    } else {
        Vt::new(s.f64_in(0.0, 1e9))
    }
}

fn arb_node_ref(s: &mut Source) -> NodeRef {
    NodeRef::new(s.any_u16(), s.any_u64())
}

fn arb_endpoint(s: &mut Source) -> (DaemonId, NodeRef) {
    (DaemonId(s.any_u16()), arb_node_ref(s))
}

fn arb_name(s: &mut Source) -> Value {
    if s.any_bool() {
        Value::Null
    } else {
        Value::str(s.string(0..12, "abcdefghij"))
    }
}

fn arb_migration(s: &mut Source) -> Migration {
    Migration {
        id: MessengerId(s.any_u64()),
        vtime: arb_vt(s),
        epoch: s.any_u64(),
        anti: s.any_bool(),
        to: arb_endpoint(s),
        via: if s.any_bool() { Some(LinkInstance(s.any_u64())) } else { None },
        bytes: Bytes::from(s.vec_with(0..64, |s| s.any_u8())),
        code_bytes: s.any_u64(),
    }
}

fn arb_ctrl(s: &mut Source) -> CtrlMsg {
    match s.draw(5) {
        0 => CtrlMsg::Cut { round: s.any_u64() },
        1 => CtrlMsg::CutAck {
            round: s.any_u64(),
            daemon: s.any_u16(),
            lmin: arb_vt(s),
            prev_sent: s.any_u64(),
            prev_recv: s.any_u64(),
            late_min: arb_vt(s),
            cur_sent_min: arb_vt(s),
        },
        2 => CtrlMsg::Poll { round: s.any_u64() },
        3 => CtrlMsg::PollAck {
            round: s.any_u64(),
            daemon: s.any_u16(),
            lmin: arb_vt(s),
            prev_recv: s.any_u64(),
            late_min: arb_vt(s),
            cur_sent_min: arb_vt(s),
        },
        _ => CtrlMsg::Advance { gvt: arb_vt(s) },
    }
}

/// Frames that can ride inside a transport envelope (everything except
/// `Data`/`Ack` themselves — the codec rejects nesting).
fn arb_payload_frame(s: &mut Source) -> Wire {
    match s.draw(5) {
        0 => Wire::Migrate(arb_migration(s)),
        1 => Wire::Create(Box::new(CreateNode {
            gid: arb_node_ref(s),
            name: arb_name(s),
            origin: arb_endpoint(s),
            origin_name: arb_name(s),
            inst: LinkInstance(s.any_u64()),
            link_name: arb_name(s),
            orient_at_new: *s.pick(&[
                msgr_core::logical::Orient::Out,
                msgr_core::logical::Orient::In,
                msgr_core::logical::Orient::Undirected,
            ]),
            messenger: arb_migration(s),
        })),
        2 => Wire::Unlink { node: arb_node_ref(s), inst: LinkInstance(s.any_u64()) },
        3 => Wire::Gvt(arb_ctrl(s)),
        _ => Wire::GvtKick,
    }
}

fn arb_paxos(s: &mut Source) -> PaxosMsg {
    let inst = InstanceId { victim: s.any_u16(), seq: s.any_u32() };
    let ballot = s.any_u64();
    let decree = Decree { victim: s.any_u16(), successor: s.any_u16(), epoch: s.any_u32() };
    match s.draw(5) {
        0 => PaxosMsg::Prepare { inst, ballot },
        1 => PaxosMsg::Promise {
            inst,
            ballot,
            accepted: s.any_bool().then(|| (s.any_u64(), decree)),
        },
        2 => PaxosMsg::AcceptReq { inst, ballot, decree },
        3 => PaxosMsg::Accepted { inst, ballot, decree },
        _ => PaxosMsg::Learn { inst, decree },
    }
}

/// One frame of any of the 13 kinds, transport envelopes included. Arms
/// are numbered by wire tag; the draws with no arm (0–4, and 9, which
/// is unassigned) yield one of the five payload kinds.
fn arb_frame(s: &mut Source) -> Wire {
    match s.draw(14) {
        5 => Wire::Data {
            src: DaemonId(s.any_u16()),
            chan: DaemonId(s.any_u16()),
            seq: s.any_u64(),
            frame: Box::new(arb_payload_frame(s)),
        },
        6 => Wire::Ack {
            src: DaemonId(s.any_u16()),
            chan: DaemonId(s.any_u16()),
            cum: s.any_u64(),
            seq: s.any_u64(),
        },
        7 => Wire::Beat { from: DaemonId(s.any_u16()), epoch: s.any_u64() },
        8 => Wire::Evict { victim: DaemonId(s.any_u16()), epoch: s.any_u64(), floor: arb_vt(s) },
        10 => Wire::Ctrl { from: DaemonId(s.any_u16()), msg: arb_paxos(s) },
        11 => Wire::Gossip {
            from: DaemonId(s.any_u16()),
            reply: s.any_bool(),
            digest: Digest {
                mem_epoch: s.any_u32(),
                evictions: s.vec_with(0..4, |s| (s.any_u16(), arb_vt(s).as_f64())),
                code_hash: s.any_u64(),
                gvt: arb_vt(s).as_f64(),
            },
        },
        12 => Wire::CkptPush {
            owner: DaemonId(s.any_u16()),
            ver: s.any_u32(),
            snapshot: Bytes::from(s.vec_with(0..32, |s| s.any_u8())),
        },
        13 => Wire::CkptAck {
            owner: DaemonId(s.any_u16()),
            holder: DaemonId(s.any_u16()),
            ver: s.any_u32(),
        },
        _ => arb_payload_frame(s),
    }
}

#[test]
fn frame_codec_round_trips() {
    check("frame_codec_round_trips", |s| {
        let w = arb_frame(s);
        let bytes = encode_frame(&w);
        let back = decode_frame(bytes).unwrap();
        prop_assert_eq!(back, w);
        Ok(())
    });
}

#[test]
fn frame_decoder_never_panics_on_garbage() {
    check("frame_decoder_never_panics_on_garbage", |s| {
        let raw = s.vec_with(0..128, |s| s.any_u8());
        // Must return Ok or Err, never panic.
        let _ = decode_frame(Bytes::from(raw));
        Ok(())
    });
}

#[test]
fn frame_corruption_is_rejected_or_visible() {
    // The shared codec property: every strict prefix of an encoded frame
    // is rejected, and a frame damaged in any one byte is rejected or
    // decodes to exactly the frame its bytes now spell.
    check("frame_corruption_is_rejected_or_visible", |s| {
        let full = encode_frame(&arb_frame(s));
        codec_corruption(s, &full, |b| {
            decode_frame(b.into()).ok().map(|w| encode_frame(&w).to_vec())
        })
    });
}

//! The byte formats daemons exchange and store, pinned: messenger state,
//! programs with their line tables, every frame kind, and a checkpoint
//! snapshot. A codec refactor must leave every row here
//! untouched; a deliberate format change re-pins the rows it moves and
//! says so in its log.

use std::sync::{Arc, RwLock};

use msgr_apps::mandel_msgr::MANAGER_WORKER_SCRIPT;
use msgr_core::config::ClusterConfig;
use msgr_core::daemon::{CodeCache, Daemon, Effect};
use msgr_core::logical::{LinkRec, Orient};
use msgr_core::topology::DaemonTopology;
use msgr_core::wire::{decode_frame, encode_frame, CreateNode, Migration, Wire};
use msgr_core::{DaemonId, NodeRef};
use msgr_ctrl::{ballot, Decree, Digest, InstanceId, PaxosMsg};
use msgr_gvt::CtrlMsg;
use msgr_sim::{CrashEvent, FaultPlan, MILLI};
use msgr_vm::interp::{self, DEFAULT_FUEL};
use msgr_vm::wire::{encode_messenger, encode_program};
use msgr_vm::{
    Bytes, LinkInstance, MapEnv, MessengerId, MessengerState, NativeRegistry, Program, Value, Vt,
    Yield,
};

/// The ledger's ring walker (`benchmark/src/workloads.rs`), with and
/// without an argument it never reads.
const HOP_WALKER: &str = r#"
walker(passes) {
    int i = 0;
    node int visits;
    visits = visits + 1;
    while (i < passes) {
        hop(ll = "ring"; ldir = +);
        visits = visits + 1;
        i = i + 1;
    }
}
"#;

/// Name, length and FNV-1a of every encoding below, captured at the
/// commit before the codecs moved onto the shared checked reader.
const PINNED: [(&str, usize, u64); 17] = [
    ("messenger.small", 28, 0xece63ea5d9a8dd56),
    ("messenger.4k", 4127, 0x458cd15ba354582c),
    ("program.mandel", 143, 0x428d2be2c718f7eb),
    ("frame.migrate", 48, 0x0257e5e1ade0029a),
    ("frame.create", 70, 0xad8ebf0fb310e652),
    ("frame.unlink", 6, 0x9096fa485be4a3c0),
    ("frame.gvt", 31, 0x0b1833c19c24ea36),
    ("frame.gvt_kick", 1, 0xaf63b94c8601b113),
    ("frame.data", 53, 0x165744370a393355),
    ("frame.ack", 5, 0x05c4bcade8c21d72),
    ("frame.beat", 3, 0xbf4307185d4ba3ac),
    ("frame.evict", 11, 0xa1f6e23bf4c0ebcd),
    ("frame.ctrl", 35, 0xb65421d97bc17c74),
    ("frame.gossip", 46, 0x85aa1a12aecdcd8f),
    ("frame.ckpt_push", 44, 0xff2d27965ae3eeb7),
    ("frame.ckpt_ack", 4, 0x471f7c98af32c668),
    ("checkpoint", 205, 0xa86136247ec9ed73),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100000001b3))
}

/// The state a daemon puts on the wire at the walker's first hop.
fn walker_at_first_hop(src: &str, args: &[Value]) -> MessengerState {
    let program = msgr_lang::compile(src).expect("walker compiles");
    let mut m = MessengerState::launch(&program, MessengerId(1), args).expect("launch");
    let y = interp::run(&program, &mut m, &mut MapEnv::new(), DEFAULT_FUEL).expect("first segment");
    assert!(matches!(y, Yield::Hop(_)), "walker did not reach its hop");
    m
}

fn migration(payload: &MessengerState) -> Migration {
    Migration {
        id: payload.id,
        vtime: Vt::new(1.5),
        epoch: 3,
        anti: false,
        to: (DaemonId(1), NodeRef::new(1, 4)),
        via: Some(LinkInstance(300)),
        bytes: encode_messenger(payload),
        code_bytes: 0,
    }
}

/// One instance of every `Wire` kind.
fn frames(walker: &MessengerState) -> Vec<(&'static str, Wire)> {
    let mig = || Wire::Migrate(migration(walker));
    let unlink = Wire::Unlink { node: NodeRef::new(1, 2), inst: LinkInstance(70_000) };
    vec![
        ("frame.migrate", mig()),
        (
            "frame.create",
            Wire::Create(Box::new(CreateNode {
                gid: NodeRef::new(3, 11),
                name: Value::str("worker"),
                origin: (DaemonId(2), NodeRef::new(2, 4)),
                origin_name: Value::Null,
                inst: LinkInstance(17),
                link_name: Value::str("ring"),
                orient_at_new: Orient::Undirected,
                messenger: migration(walker),
            })),
        ),
        ("frame.unlink", unlink),
        (
            "frame.gvt",
            Wire::Gvt(CtrlMsg::CutAck {
                round: 9,
                daemon: 300,
                lmin: Vt::new(1.5),
                prev_sent: 10,
                prev_recv: 8,
                late_min: Vt::INFINITY,
                cur_sent_min: Vt::new(2.25),
            }),
        ),
        ("frame.gvt_kick", Wire::GvtKick),
        (
            "frame.data",
            Wire::Data { src: DaemonId(3), chan: DaemonId(5), seq: 129, frame: Box::new(mig()) },
        ),
        ("frame.ack", Wire::Ack { src: DaemonId(7), chan: DaemonId(7), cum: 41, seq: 44 }),
        ("frame.beat", Wire::Beat { from: DaemonId(4), epoch: 2 }),
        ("frame.evict", Wire::Evict { victim: DaemonId(1), epoch: 3, floor: Vt::new(7.5) }),
        (
            "frame.ctrl",
            Wire::Ctrl {
                from: DaemonId(3),
                msg: PaxosMsg::Promise {
                    inst: InstanceId { victim: 2, seq: 1 },
                    ballot: ballot(4, 0),
                    accepted: Some((ballot(2, 3), Decree { victim: 2, successor: 3, epoch: 5 })),
                },
            },
        ),
        (
            "frame.gossip",
            Wire::Gossip {
                from: DaemonId(6),
                reply: true,
                digest: Digest {
                    mem_epoch: 2,
                    evictions: vec![(1, 3.5), (4, f64::INFINITY)],
                    code_hash: u64::MAX,
                    gvt: 12.25,
                },
            },
        ),
        (
            "frame.ckpt_push",
            Wire::CkptPush { owner: DaemonId(3), ver: 7, snapshot: Bytes::from(vec![9u8; 40]) },
        ),
        ("frame.ckpt_ack", Wire::CkptAck { owner: DaemonId(3), holder: DaemonId(4), ver: 7 }),
    ]
}

/// A checkpoint of a recovery-armed daemon holding two linked nodes with
/// variables, a parked messenger, an unacknowledged outbound frame and an
/// out-of-order inbound one.
fn snapshot(program: &Program, walker: &MessengerState) -> Bytes {
    let mut cfg = ClusterConfig::new(3);
    cfg.seed = 7;
    cfg.faults = FaultPlan { crashes: vec![CrashEvent::kill(2, 20 * MILLI)], ..FaultPlan::none() };
    let codes = CodeCache::new();
    codes.register(program);
    let mut d = Daemon::new(
        DaemonId(0),
        Arc::new(cfg),
        Arc::new(DaemonTopology::clique(3)),
        codes,
        Arc::new(RwLock::new(NativeRegistry::new())),
    );
    let leaf = d.build_node(Value::str("leaf"));
    let inst = d.alloc_link();
    d.install_link(
        leaf,
        LinkRec {
            inst,
            name: Value::str("ring"),
            orient: Orient::Out,
            peer: (DaemonId(1), NodeRef::new(1, 1)),
            peer_name: Value::str("next"),
        },
    );
    d.set_node_var(leaf, "visits", Value::Int(5));
    d.set_node_var(leaf, "done", Value::Bool(true));
    let mut fx = Vec::new();
    let mut inbound = migration(walker);
    inbound.to = (DaemonId(0), leaf);
    inbound.via = None;
    d.on_wire_at(MILLI, Wire::Migrate(inbound.clone()), &mut fx);
    assert!(d.has_work(), "the walker must be parked");
    // Sequence 2 before sequence 1: held for resequencing.
    d.on_wire_at(
        MILLI,
        Wire::Data {
            src: DaemonId(1),
            chan: DaemonId(0),
            seq: 2,
            frame: Box::new(Wire::Migrate(inbound)),
        },
        &mut fx,
    );
    let mut out = vec![Effect::Send { dst: DaemonId(1), wire: Wire::Migrate(migration(walker)) }];
    d.seal_effects(MILLI, &mut out);
    assert_eq!(d.unacked_frames(), 1);
    d.checkpoint_flush(2 * MILLI, &mut fx);
    d.checkpoint_snapshot()
}

#[test]
fn wire_format_is_pinned() {
    let walker = walker_at_first_hop(HOP_WALKER, &[Value::Int(8)]);
    let carrier = walker_at_first_hop(
        &HOP_WALKER.replace("walker(passes)", "walker(passes, payload)"),
        &[Value::Int(8), Value::str("x".repeat(4096))],
    );
    let mandel = msgr_lang::compile(MANAGER_WORKER_SCRIPT).expect("mandel compiles");
    let hop_program = msgr_lang::compile(HOP_WALKER).expect("walker compiles");

    let mut rows: Vec<(&str, Bytes)> = vec![
        ("messenger.small", encode_messenger(&walker)),
        ("messenger.4k", encode_messenger(&carrier)),
        ("program.mandel", encode_program(&mandel)),
    ];
    rows.extend(frames(&walker).into_iter().map(|(name, w)| (name, encode_frame(&w))));
    rows.push(("checkpoint", snapshot(&hop_program, &walker)));

    // The short one in full, as a readable anchor for the others.
    let hex: String = rows[0].1.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(
        hex, "01ccdef4bea4dae9b81600000000000000000001000c020210020000",
        "messenger.small bytes"
    );

    let actual: Vec<(&str, usize, u64)> =
        rows.iter().map(|(name, b)| (*name, b.len(), fnv1a(b))).collect();
    assert_eq!(actual, PINNED, "name, length, FNV-1a of each encoding");
}

/// Tag 9 carried the batch envelope until 0.14.0. It is unassigned now
/// and must stay rejected — bare and as a `Data` payload — so a later
/// frame kind cannot silently reinterpret old images.
#[test]
fn tag_9_is_rejected() {
    // What 0.13 wrote for a batch of two `GvtKick`s: tag, count, frames.
    let batch = [9u8, 2, 4, 4];
    assert!(decode_frame(Bytes::from(batch.to_vec())).is_err(), "bare tag 9 decoded");
    // Data { src: 0, chan: 1, seq: 1, frame: <tag 9 ...> }
    let mut sealed = vec![5u8, 0, 1, 1];
    sealed.extend_from_slice(&batch);
    assert!(decode_frame(Bytes::from(sealed.clone())).is_err(), "tag 9 inside Data decoded");
    // The same envelope around a real frame decodes, so it is the tag
    // that was refused, not the envelope.
    sealed.truncate(4);
    sealed.push(4);
    assert_eq!(
        decode_frame(Bytes::from(sealed)).expect("Data(GvtKick)"),
        Wire::Data { src: DaemonId(0), chan: DaemonId(1), seq: 1, frame: Box::new(Wire::GvtKick) }
    );
}

//! Daemon-level unit tests: the wire-protocol handlers exercised
//! directly, without a platform.

use std::collections::HashMap;
use std::sync::Arc;

use msgr_vm::bytes::{Bytes, BytesMut};
use std::sync::RwLock;

use msgr_check::{check_with, codec_corruption, Config};
use msgr_core::config::{ClusterConfig, VtMode};
use msgr_core::daemon::{CodeCache, Daemon, Effect};
use msgr_core::ids::{DaemonId, NodeRef};
use msgr_core::logical::{LinkRec, Orient};
use msgr_core::topology::DaemonTopology;
use msgr_core::wire::{Migration, Wire};
use msgr_core::EventKind;
use msgr_gvt::CtrlMsg;
use msgr_sim::{CrashEvent, FaultPlan, MILLI};
use msgr_vm::{wire as vmwire, MessengerId, MessengerState, NativeRegistry, Value, Vt};

fn mk_daemon(id: u16, cfg: ClusterConfig) -> (Daemon, CodeCache) {
    let codes = CodeCache::new();
    let d = Daemon::new(
        DaemonId(id),
        Arc::new(cfg.clone()),
        Arc::new(DaemonTopology::clique(cfg.daemons)),
        codes.clone(),
        Arc::new(RwLock::new(NativeRegistry::new())),
    );
    (d, codes)
}

fn trivial_program() -> msgr_vm::Program {
    msgr_lang::compile("main() { node int ran; ran = ran + 1; }").unwrap()
}

fn migration_for(d: &Daemon, state: &MessengerState, epoch: u64) -> Wire {
    Wire::Migrate(Migration {
        id: state.id,
        vtime: state.vtime,
        epoch,
        anti: false,
        to: (d.id(), d.init_node()),
        via: None,
        bytes: vmwire::encode_messenger(state),
        code_bytes: 0,
    })
}

#[test]
fn migrate_wire_enqueues_and_runs() {
    let (mut d, codes) = mk_daemon(0, ClusterConfig::new(2));
    let prog = trivial_program();
    codes.register(&prog);
    let state = MessengerState::launch(&prog, MessengerId::compose(1, 1), &[]).unwrap();

    let mut fx = Vec::new();
    let cost = d.on_wire(migration_for(&d, &state, 0), &mut fx);
    assert!(cost > 0, "receiving charges CPU");
    assert!(d.has_work());

    let dir: HashMap<Value, (DaemonId, NodeRef)> = HashMap::new();
    let cost = d.run_segment(&dir, &mut fx).expect("one segment");
    assert!(cost > 0);
    assert!(!d.has_work());
    assert!(fx.contains(&Effect::LiveDelta(-1)), "termination decrements live count");
    assert_eq!(d.node_var(d.init_node(), "ran"), Some(Value::Int(1)));
}

#[test]
fn migration_to_missing_node_is_a_dead_letter() {
    let (mut d, codes) = mk_daemon(0, ClusterConfig::new(2));
    let prog = trivial_program();
    codes.register(&prog);
    let state = MessengerState::launch(&prog, MessengerId::compose(1, 1), &[]).unwrap();
    let mut fx = Vec::new();
    d.on_wire(
        Wire::Migrate(Migration {
            id: state.id,
            vtime: Vt::ZERO,
            epoch: 0,
            anti: false,
            to: (DaemonId(0), NodeRef::new(9, 999)), // never existed
            via: None,
            bytes: vmwire::encode_messenger(&state),
            code_bytes: 0,
        }),
        &mut fx,
    );
    assert!(!d.has_work());
    assert!(fx.contains(&Effect::LiveDelta(-1)));
    assert_eq!(d.stats().counter("dead_letters"), 1);
}

#[test]
fn corrupt_migration_faults_without_crashing() {
    let (mut d, _codes) = mk_daemon(0, ClusterConfig::new(1));
    let mut fx = Vec::new();
    d.on_wire(
        Wire::Migrate(Migration {
            id: MessengerId(7),
            vtime: Vt::ZERO,
            epoch: 0,
            anti: false,
            to: (DaemonId(0), d.init_node()),
            via: None,
            bytes: Bytes::from_static(&[0xFF, 0x00, 0x13]),
            code_bytes: 0,
        }),
        &mut fx,
    );
    assert!(fx.iter().any(|e| matches!(e, Effect::Fault { .. })));
    assert!(!d.has_work());
}

#[test]
fn missing_program_faults_at_execution() {
    let (mut d, _codes) = mk_daemon(0, ClusterConfig::new(1));
    // Encode a messenger whose program was never registered here.
    let foreign = msgr_lang::compile("main() { return 1; }").unwrap();
    let state = MessengerState::launch(&foreign, MessengerId::compose(0, 5), &[]).unwrap();
    let mut fx = Vec::new();
    d.on_wire(migration_for(&d, &state, 0), &mut fx);
    let dir: HashMap<Value, (DaemonId, NodeRef)> = HashMap::new();
    d.run_segment(&dir, &mut fx);
    assert!(
        fx.iter().any(|e| matches!(e, Effect::Fault { error, .. } if error.contains("registry"))),
        "{fx:?}"
    );
}

#[test]
fn unlink_wire_collects_singletons() {
    let (mut d, _codes) = mk_daemon(0, ClusterConfig::new(1));
    let (leaf, inst) = tethered_leaf(&mut d);
    let mut fx = Vec::new();
    d.on_wire(Wire::Unlink { node: leaf, inst }, &mut fx);
    assert!(d.node(leaf).is_none(), "singleton must be deleted");
    assert!(fx.contains(&Effect::DirectoryRemove { name: Value::str("leaf") }));
    // init is exempt even when linkless.
    assert!(d.node(d.init_node()).is_some());
}

#[test]
fn anti_messenger_annihilates_pending_or_stashes() {
    let mut cfg = ClusterConfig::new(2);
    cfg.vt_mode = VtMode::Optimistic;
    let (mut d, codes) = mk_daemon(0, cfg);
    let prog = trivial_program();
    codes.register(&prog);
    let mut state = MessengerState::launch(&prog, MessengerId::compose(1, 9), &[]).unwrap();
    state.vtime = Vt::new(3.0);

    let anti = |id: MessengerId| {
        Wire::Migrate(Migration {
            id,
            vtime: Vt::new(3.0),
            epoch: 0,
            anti: true,
            to: (DaemonId(0), NodeRef::new(0, 0)),
            via: None,
            bytes: Bytes::new(),
            code_bytes: 0,
        })
    };

    // Case 1: positive first, then anti → annihilated from the queue.
    let mut fx = Vec::new();
    d.on_wire(migration_for(&d, &state, 0), &mut fx);
    assert!(d.has_work());
    d.on_wire(anti(state.id), &mut fx);
    assert!(!d.has_work(), "positive must be annihilated");
    assert_eq!(d.stats().counter("annihilations"), 1);

    // Case 2: anti overtakes the positive → stashed, positive dies on
    // arrival.
    let id2 = MessengerId::compose(1, 10);
    let mut state2 = state.clone();
    state2.id = id2;
    d.on_wire(anti(id2), &mut fx);
    assert!(!d.has_work());
    d.on_wire(migration_for(&d, &state2, 0), &mut fx);
    assert!(!d.has_work(), "late positive must be swallowed by the stashed anti");
    assert_eq!(d.stats().counter("annihilations"), 2);
}

#[test]
fn gvt_kick_starts_round_only_on_coordinator() {
    let (mut d0, _) = mk_daemon(0, ClusterConfig::new(3));
    let (mut d1, _) = mk_daemon(1, ClusterConfig::new(3));
    let mut fx = Vec::new();
    d0.on_wire(Wire::GvtKick, &mut fx);
    let cuts = fx
        .iter()
        .filter(|e| matches!(e, Effect::Send { wire: Wire::Gvt(CtrlMsg::Cut { .. }), .. }))
        .count();
    assert_eq!(cuts, 3, "coordinator broadcasts a cut to all daemons");
    fx.clear();
    d1.on_wire(Wire::GvtKick, &mut fx);
    assert!(fx.is_empty(), "non-coordinators ignore kicks");
}

#[test]
fn a_gvt_ack_naming_a_daemon_outside_the_cluster_is_ignored() {
    let (mut d, _) = mk_daemon(0, ClusterConfig::new(2));
    let mut fx = Vec::new();
    assert!(d.gvt_begin(&mut fx), "daemon 0 coordinates");
    fx.clear();
    let forged = CtrlMsg::CutAck {
        round: 1,
        daemon: 9,
        lmin: Vt::ZERO,
        prev_sent: 0,
        prev_recv: 0,
        late_min: Vt::ZERO,
        cur_sent_min: Vt::ZERO,
    };
    d.on_wire(Wire::Gvt(forged), &mut fx);
    assert!(fx.is_empty(), "a forged ack must not advance the round: {fx:?}");
}

#[test]
fn cut_wire_produces_ack_with_local_min() {
    let (mut d, codes) = mk_daemon(1, ClusterConfig::new(2));
    let prog = msgr_lang::compile("main() { M_sched_time_abs(7.5); }").unwrap();
    let pid = codes.register(&prog);
    d.launch(&prog, pid, &[], d.init_node()).unwrap();
    let dir: HashMap<Value, (DaemonId, NodeRef)> = HashMap::new();
    let mut fx = Vec::new();
    d.run_segment(&dir, &mut fx); // suspends at vt 7.5
    assert_eq!(d.local_min(), Vt::new(7.5));

    fx.clear();
    d.on_wire(Wire::Gvt(CtrlMsg::Cut { round: 1 }), &mut fx);
    match &fx[..] {
        [Effect::Send { dst, wire: Wire::Gvt(CtrlMsg::CutAck { lmin, daemon, .. }) }] => {
            assert_eq!(*dst, DaemonId(0));
            assert_eq!(*daemon, 1);
            assert_eq!(*lmin, Vt::new(7.5));
        }
        other => panic!("expected one CutAck, got {other:?}"),
    }

    // Advance past the wake time releases the messenger.
    fx.clear();
    d.on_wire(Wire::Gvt(CtrlMsg::Advance { gvt: Vt::new(7.5) }), &mut fx);
    assert!(d.has_work());
}

#[test]
fn carry_code_inflates_wire_size_only() {
    let mut cfg = ClusterConfig::new(2);
    cfg.carry_code = true;
    let (mut d, codes) = mk_daemon(0, cfg);
    let prog = msgr_lang::compile(r#"main() { hop(ll = "out"); }"#).unwrap();
    let pid = codes.register(&prog);
    // Give init an outgoing link so the hop matches.
    let inst = d.alloc_link();
    let init = d.init_node();
    d.install_link(
        init,
        LinkRec {
            inst,
            name: Value::str("out"),
            orient: Orient::Undirected,
            peer: (DaemonId(1), NodeRef::new(1, 0)),
            peer_name: Value::str("init"),
        },
    );
    d.launch(&prog, pid, &[], init).unwrap();
    let dir: HashMap<Value, (DaemonId, NodeRef)> = HashMap::new();
    let mut fx = Vec::new();
    d.run_segment(&dir, &mut fx);
    let sent = fx
        .iter()
        .find_map(|e| match e {
            Effect::Send { wire: Wire::Migrate(m), .. } => Some(m.clone()),
            _ => None,
        })
        .expect("hop sent a migration");
    assert!(sent.code_bytes > 0, "carry-code mode ships the program");
    assert_eq!(sent.code_bytes, prog.wire_bytes());
    // The decoded state itself is unchanged.
    let back = vmwire::decode_messenger(sent.bytes).unwrap();
    assert_eq!(back.program, prog.id());
}

/// Daemon 0 with `k` links named "out" from `init`, all to daemon 1, and
/// one hop over them run: the effects of that segment.
fn hop_over(k: usize) -> Vec<Effect> {
    let (mut d, codes) = mk_daemon(0, ClusterConfig::new(2));
    let init = d.init_node();
    for i in 0..k {
        let inst = d.alloc_link();
        d.install_link(
            init,
            LinkRec {
                inst,
                name: Value::str("out"),
                orient: Orient::Undirected,
                peer: (DaemonId(1), NodeRef::new(1, i as u64)),
                peer_name: Value::Null,
            },
        );
    }
    launched(&mut d, &codes, r#"main() { hop(ll = "out"); }"#);
    let mut fx = Vec::new();
    run(&mut d, &mut fx);
    let sends = fx.iter().filter(|e| matches!(e, Effect::Send { .. })).count();
    assert_eq!(sends, k, "one migration per link in {fx:?}");
    fx
}

#[test]
fn a_hop_grants_credit_for_replicas_only() {
    let credits = |fx: &[Effect]| {
        fx.iter()
            .filter_map(|e| match e {
                Effect::LiveDelta(n) => Some(*n),
                _ => None,
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(credits(&hop_over(1)), [] as [i64; 0], "a single-destination hop");
    for k in 2..=4 {
        assert_eq!(credits(&hop_over(k)), [k as i64 - 1], "a {k}-way hop");
    }
}

/// The key under which daemon `d` holds node variable `var` at `init`.
fn var_key(d: &Daemon, var: &str) -> Arc<str> {
    let node = d.node(d.init_node()).unwrap();
    node.vars.keys().find(|k| &***k == var).cloned().expect("variable written")
}

#[test]
fn overwriting_a_node_var_keeps_its_key() {
    let natives = Arc::new(RwLock::new(NativeRegistry::new()));
    natives.write().unwrap().register("tick", |ctx, _| {
        let n = ctx.node_var("ticks").as_int().unwrap_or(0);
        ctx.set_node_var("ticks", Value::Int(n + 1));
        Ok(Value::Null)
    });
    let cfg = ClusterConfig::new(1);
    let codes = CodeCache::new();
    let mut d = Daemon::new(
        DaemonId(0),
        Arc::new(cfg.clone()),
        Arc::new(DaemonTopology::clique(cfg.daemons)),
        codes.clone(),
        natives,
    );
    let prog = msgr_lang::compile("main() { node int visits; visits = visits + 1; tick(); }");
    let prog = prog.unwrap();
    let pid = codes.register(&prog);
    let init = d.init_node();
    d.set_node_var(init, "visits", Value::Int(0));
    d.set_node_var(init, "ticks", Value::Int(0));
    let (vm, native) = (var_key(&d, "visits"), var_key(&d, "ticks"));
    let mut fx = Vec::new();
    d.launch(&prog, pid, &[], init).unwrap();
    run(&mut d, &mut fx);
    assert_eq!(d.node_var(init, "visits"), Some(Value::Int(1)));
    assert_eq!(d.node_var(init, "ticks"), Some(Value::Int(1)));
    assert!(Arc::ptr_eq(&vm, &var_key(&d, "visits")), "the VM write reallocated its key");
    assert!(Arc::ptr_eq(&native, &var_key(&d, "ticks")), "the native write reallocated its key");
    d.set_node_var(init, "visits", Value::Int(5));
    assert!(Arc::ptr_eq(&vm, &var_key(&d, "visits")), "the setup write reallocated its key");
}

#[test]
fn local_min_spans_ready_and_pending() {
    let (mut d, codes) = mk_daemon(1, ClusterConfig::new(2));
    assert_eq!(d.local_min(), Vt::INFINITY);
    let prog = trivial_program();
    let pid = codes.register(&prog);
    d.launch(&prog, pid, &[], d.init_node()).unwrap();
    assert_eq!(d.local_min(), Vt::ZERO, "ready messengers count");
}

/// A recovery-armed cluster: the fault plan can kill daemon 2 for good.
fn armed_cfg() -> ClusterConfig {
    let mut cfg = ClusterConfig::new(3);
    cfg.faults = FaultPlan { crashes: vec![CrashEvent::kill(2, 20 * MILLI)], ..FaultPlan::none() };
    cfg
}

/// A real checkpoint of daemon 0: a linked node with variables, a parked
/// messenger, an unacknowledged send and a frame held out of order.
fn real_snapshot() -> Bytes {
    let (mut d, codes) = mk_daemon(0, armed_cfg());
    let prog = trivial_program();
    codes.register(&prog);
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
    d.set_node_var(leaf, "done", Value::Bool(true));
    let state = MessengerState::launch(&prog, MessengerId::compose(1, 1), &[]).unwrap();
    let mut fx = Vec::new();
    d.on_wire_at(MILLI, migration_for(&d, &state, 0), &mut fx);
    let held = Wire::Data {
        src: DaemonId(1),
        chan: DaemonId(0),
        seq: 2, // 1 never arrived
        frame: Box::new(migration_for(&d, &state, 0)),
    };
    d.on_wire_at(MILLI, held, &mut fx);
    let mut out = vec![Effect::Send { dst: DaemonId(1), wire: migration_for(&d, &state, 0) }];
    d.seal_effects(MILLI, &mut out);
    assert_eq!(d.unacked_frames(), 1);
    d.checkpoint_flush(2 * MILLI, &mut fx);
    d.checkpoint_snapshot()
}

#[test]
fn damaged_checkpoints_are_errors_not_panics() {
    // The shared codec property against `restore_from` on a scratch heir:
    // the intact snapshot restores, every truncation is an error, and a
    // flipped byte restores or errors — it never panics or aborts.
    let snap = real_snapshot();
    let restore = |bytes: &[u8]| {
        let (mut heir, _) = mk_daemon(1, armed_cfg());
        heir.restore_from(DaemonId(0), bytes.into(), 3 * MILLI, &mut Vec::new())
    };
    check_with(Config::with_cases(32), "damaged_checkpoints", |s| {
        codec_corruption(s, &snap, |b| restore(b).ok().map(|()| b.to_vec()))
    });

    // A node count no buffer could hold must not be allocated for.
    let mut huge = BytesMut::new();
    huge.put_u8(1);
    for _ in 0..4 {
        huge.put_varint(0); // id counters
    }
    huge.put_varint(u64::MAX);
    assert!(restore(&huge).is_err());
}

/// Every frame kind that names a daemon, naming one the 3-daemon cluster
/// does not have — plus a decree and an eviction whose *victim* it is.
fn frames_naming_daemon_99() -> Vec<Wire> {
    use msgr_ctrl::{ballot, Decree, Digest, InstanceId, PaxosMsg};
    let ghost = DaemonId(99);
    let inst = InstanceId { victim: 99, seq: 0 };
    let digest = Digest { mem_epoch: 0, evictions: vec![(99, 0.5)], code_hash: 0, gvt: 0.0 };
    vec![
        Wire::Beat { from: ghost, epoch: 0 },
        Wire::Ctrl { from: ghost, msg: PaxosMsg::Prepare { inst, ballot: ballot(1, 99) } },
        Wire::Ctrl {
            from: DaemonId(0),
            msg: PaxosMsg::Learn { inst, decree: Decree { victim: 99, successor: 1, epoch: 1 } },
        },
        Wire::Gossip { from: ghost, reply: true, digest },
        Wire::CkptPush { owner: ghost, ver: 1, snapshot: Bytes::from_static(&[1, 2, 3]) },
        Wire::CkptAck { owner: DaemonId(1), holder: ghost, ver: 1 },
        Wire::Data {
            src: ghost,
            chan: DaemonId(1),
            seq: 1,
            frame: Box::new(Wire::Unlink {
                node: NodeRef::new(9, 9),
                inst: msgr_vm::LinkInstance(1),
            }),
        },
        Wire::Ack { src: DaemonId(1), chan: ghost, cum: 1, seq: 1 },
        Wire::Evict { victim: ghost, epoch: 7, floor: Vt::ZERO },
    ]
}

/// The membership view of a 3-daemon cluster is untouched.
fn assert_membership_untouched(d: &Daemon, fx: &[Effect], what: &str) {
    assert_eq!(d.mem_epoch(), 0, "{what}: epoch moved");
    assert!(d.is_peer_alive(DaemonId(0)) && d.is_peer_alive(DaemonId(2)), "{what}: peer evicted");
    assert!(!d.is_peer_alive(DaemonId(99)), "{what}: daemon 99 joined the cluster");
    assert!(!fx.iter().any(|e| matches!(e, Effect::Recover { .. })), "{what}: failover in {fx:?}");
}

#[test]
fn frames_naming_a_daemon_outside_the_cluster_do_not_panic() {
    // On a recovery-armed daemon every one of these reaches the failure
    // detector or the membership view with an id no `u16` codec can
    // bound by the cluster size.
    for frame in frames_naming_daemon_99() {
        let what = format!("{frame:?}");
        let (mut d, _) = mk_daemon(1, armed_cfg());
        let mut fx = Vec::new();
        d.on_wire_at(MILLI, frame, &mut fx);
        assert_membership_untouched(&d, &fx, &what);
        // Nor may a reply be addressed to it: both platforms index their
        // daemons by `dst`.
        let stray = fx.iter().find(|e| matches!(e, Effect::Send { dst, .. } if dst.0 >= 3));
        assert!(stray.is_none(), "{what}: addressed {stray:?}");
    }
}

#[test]
fn an_eviction_of_daemon_99_held_in_a_checkpoint_channel_does_not_panic() {
    // Well-formed but damaged: daemon 0's snapshot holds, out of order on
    // channel 1 → 0, an `Evict` naming a daemon that never existed. The
    // heir adopts the channel; filling the gap below releases the frame.
    let (mut d, _) = mk_daemon(0, armed_cfg());
    let mut fx = Vec::new();
    let evict = Wire::Evict { victim: DaemonId(99), epoch: 7, floor: Vt::ZERO };
    let held = Wire::Data { src: DaemonId(1), chan: DaemonId(0), seq: 2, frame: Box::new(evict) };
    d.on_wire_at(MILLI, held, &mut fx);
    d.checkpoint_flush(2 * MILLI, &mut fx);
    let snap = d.checkpoint_snapshot();

    let (mut heir, _) = mk_daemon(1, armed_cfg());
    let mut fx = Vec::new();
    heir.restore_from(DaemonId(0), snap, 3 * MILLI, &mut fx).expect("well-formed snapshot");
    assert_eq!(heir.mem_epoch(), 1, "the restore evicts daemon 0");
    let gap = Wire::Unlink { node: NodeRef::new(9, 9), inst: msgr_vm::LinkInstance(1) };
    let fill = Wire::Data { src: DaemonId(1), chan: DaemonId(0), seq: 1, frame: Box::new(gap) };
    heir.on_wire_at(4 * MILLI, fill, &mut fx);
    assert_eq!(heir.mem_epoch(), 1, "the released eviction must be ignored");
    assert!(heir.is_peer_alive(DaemonId(2)) && !heir.is_peer_alive(DaemonId(99)));
}

// ---- one lifecycle: every way a messenger dies goes through one door ----

fn run(d: &mut Daemon, fx: &mut Vec<Effect>) {
    let dir: HashMap<Value, (DaemonId, NodeRef)> = HashMap::new();
    d.run_segment(&dir, fx).expect("one segment");
}

fn launched(d: &mut Daemon, codes: &CodeCache, src: &str) -> MessengerId {
    let prog = msgr_lang::compile(src).unwrap();
    let pid = codes.register(&prog);
    d.launch(&prog, pid, &[], d.init_node()).unwrap()
}

/// A node tethered to `init` by one link, so one `Unlink` frame makes
/// it a collectable singleton.
fn tethered_leaf(d: &mut Daemon) -> (NodeRef, msgr_vm::LinkInstance) {
    let leaf = d.build_node(Value::str("leaf"));
    let inst = d.alloc_link();
    d.install_link(
        leaf,
        LinkRec {
            inst,
            name: Value::str("tether"),
            orient: Orient::Undirected,
            peer: (DaemonId(0), d.init_node()),
            peer_name: Value::str("init"),
        },
    );
    (leaf, inst)
}

/// One way to kill one messenger on daemon 0.
struct Case {
    cause: &'static str,
    /// The counter this cause owns (`faults` for the fault causes).
    counter: &'static str,
    fault: bool,
    cfg: fn(&mut ClusterConfig),
    /// Drive the daemon until the messenger is dead; returns its id.
    kill: fn(&mut Daemon, &CodeCache, &mut Vec<Effect>) -> MessengerId,
}

const DEATHS: &[Case] = &[
    Case {
        cause: "retired",
        counter: "terminated",
        fault: false,
        cfg: |_| {},
        kill: |d, codes, fx| {
            let mid = launched(d, codes, "main() { node int ran; ran = 1; }");
            run(d, fx);
            mid
        },
    },
    Case {
        cause: "fault: undecodable state",
        counter: "faults",
        fault: true,
        cfg: |_| {},
        kill: |d, _, fx| {
            let m = MessengerState::launch(&trivial_program(), MessengerId(7), &[]).unwrap();
            let Wire::Migrate(mut frame) = migration_for(d, &m, 0) else { unreachable!() };
            frame.bytes = Bytes::from_static(&[0xFF, 0x00, 0x13]);
            d.on_wire(Wire::Migrate(frame), fx);
            m.id
        },
    },
    Case {
        cause: "fault: quarantined program at the door",
        counter: "faults",
        fault: true,
        cfg: |_| {},
        kill: |d, codes, fx| {
            let mut b = msgr_vm::Builder::new();
            let f = b.function("main", 0, 0, vec![msgr_vm::Op::Jump(100)]);
            let bad = b.finish(f);
            codes.register(&bad);
            let m = MessengerState::launch(&bad, MessengerId::compose(1, 1), &[]).unwrap();
            d.on_wire(migration_for(d, &m, 0), fx);
            assert_eq!(d.stats().counter("verify_rejected"), 1);
            m.id
        },
    },
    Case {
        cause: "fault: unknown program",
        counter: "faults",
        fault: true,
        cfg: |_| {},
        kill: |d, _, fx| {
            let foreign = msgr_lang::compile("main() { return 1; }").unwrap();
            let mid = d.launch(&foreign, foreign.id(), &[], d.init_node()).unwrap();
            run(d, fx);
            mid
        },
    },
    Case {
        cause: "fault: negative virtual-time delta",
        counter: "faults",
        fault: true,
        cfg: |_| {},
        kill: |d, codes, fx| {
            let mid = launched(d, codes, "main() { M_sched_time_dlt(0.0 - 1.0); }");
            run(d, fx);
            mid
        },
    },
    Case {
        cause: "fault: create under Time Warp",
        counter: "faults",
        fault: true,
        cfg: |cfg| cfg.vt_mode = VtMode::Optimistic,
        kill: |d, codes, fx| {
            let mid = launched(d, codes, r#"main() { create(ln = "n"; ll = "l"); }"#);
            run(d, fx);
            mid
        },
    },
    Case {
        cause: "no-match",
        counter: "hop_no_match",
        fault: false,
        cfg: |_| {},
        kill: |d, codes, fx| {
            let mid = launched(d, codes, r#"main() { hop(ll = "nowhere"); }"#);
            run(d, fx);
            mid
        },
    },
    Case {
        cause: "dead-letter",
        counter: "dead_letters",
        fault: false,
        cfg: |_| {},
        kill: |d, codes, fx| {
            let prog = trivial_program();
            codes.register(&prog);
            let m = MessengerState::launch(&prog, MessengerId::compose(1, 1), &[]).unwrap();
            let Wire::Migrate(mut frame) = migration_for(d, &m, 0) else { unreachable!() };
            frame.to.1 = NodeRef::new(9, 999); // never existed
            d.on_wire(Wire::Migrate(frame), fx);
            m.id
        },
    },
    Case {
        cause: "annihilated",
        counter: "annihilations",
        fault: false,
        cfg: |cfg| cfg.vt_mode = VtMode::Optimistic,
        kill: |d, codes, fx| {
            let prog = trivial_program();
            codes.register(&prog);
            let m = MessengerState::launch(&prog, MessengerId::compose(1, 9), &[]).unwrap();
            d.on_wire(migration_for(d, &m, 0), fx);
            let Wire::Migrate(mut anti) = migration_for(d, &m, 0) else { unreachable!() };
            (anti.anti, anti.bytes) = (true, Bytes::new());
            d.on_wire(Wire::Migrate(anti), fx);
            m.id
        },
    },
    Case {
        cause: "stranded",
        counter: "stranded_killed",
        fault: false,
        cfg: |_| {},
        kill: |d, codes, fx| {
            // Park a messenger on virtual time at a leaf, then cut the
            // leaf's last link: the singleton is collected under it.
            let (leaf, inst) = tethered_leaf(d);
            let prog = msgr_lang::compile("main() { M_sched_time_abs(7.5); }").unwrap();
            let pid = codes.register(&prog);
            d.launch(&prog, pid, &[], leaf).unwrap();
            run(d, fx);
            d.on_wire(Wire::Unlink { node: leaf, inst }, fx);
            assert!(d.node(leaf).is_none() && !d.has_any_messengers());
            MessengerId::compose(0, 2) // the park re-identified the continuation
        },
    },
    Case {
        cause: "abandoned",
        counter: "faults",
        fault: true,
        cfg: |cfg| {
            cfg.faults = FaultPlan::lossy(0.5);
            cfg.retransmit.max_attempts = 1;
        },
        kill: |d, codes, fx| {
            let init = d.init_node();
            let inst = d.alloc_link();
            d.install_link(
                init,
                LinkRec {
                    inst,
                    name: Value::str("out"),
                    orient: Orient::Undirected,
                    peer: (DaemonId(1), NodeRef::new(1, 0)),
                    peer_name: Value::str("init"),
                },
            );
            launched(d, codes, r#"main() { hop(ll = "out"); }"#);
            run(d, fx);
            d.seal_effects(MILLI, fx);
            let timer = fx.iter().find_map(|e| match e {
                Effect::Timer { src, chan, seq, .. } => Some((*src, *chan, *seq)),
                _ => None,
            });
            let (src, chan, seq) = timer.expect("sealing arms a retransmit timer");
            d.on_timer(40 * MILLI, src, chan, seq, fx);
            assert_eq!(d.stats().counter("xport_gave_up"), 1);
            MessengerId::compose(0, 2) // the replica the hop minted
        },
    },
];

#[test]
fn every_death_goes_through_one_door() {
    for case in DEATHS {
        let mut cfg = ClusterConfig::new(2);
        cfg.trace = msgr_core::TraceConfig::on();
        cfg.profile = true;
        (case.cfg)(&mut cfg);
        let (mut d, codes) = mk_daemon(0, cfg);
        let mut fx = Vec::new();
        let dead = (case.kill)(&mut d, &codes, &mut fx);
        let (_, events, _) = d.take_trace();
        let count = |ev: &str| events.iter().filter(|e| e.kind.name() == ev).count();
        let cause = case.cause;

        let census = fx.iter().filter(|e| **e == Effect::LiveDelta(-1)).count();
        assert_eq!(census, 1, "{cause}: exactly one LiveDelta(-1) in {fx:?}");
        assert_eq!(d.stats().counter(case.counter), 1, "{cause}: `{}`", case.counter);
        let faults = usize::from(case.fault);
        let reported = fx.iter().filter(|e| matches!(e, Effect::Fault { .. })).count();
        assert_eq!(reported, faults, "{cause}: Effect::Fault in {fx:?}");
        assert_eq!(d.stats().counter("faults"), faults as u64, "{cause}: `faults` counter");
        assert_eq!(count("fault"), faults, "{cause}: `fault` events");
        let ledgers = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::PhaseLedger { mid, .. } if mid == dead.0))
            .count();
        assert_eq!(ledgers, 1, "{cause}: one phase_ledger for {dead:?} in {events:?}");
    }
}

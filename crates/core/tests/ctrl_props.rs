//! Control-plane property suite: quorum-agreed membership changes plus
//! `k`-replicated checkpoints must survive losing a daemon **and** the
//! primary holder of its checkpoint in the same fault plan — the
//! double-fault the deterministic next-alive scheme could not.
//!
//! Every property runs 256 generated cases through `msgr-check`, so a
//! failing case prints a `MSGR_CHECK_SEED=<n>` line and replays (and
//! shrinks) deterministically. `MSGR_FAULT_SEED=<n>` (set by
//! `scripts/ci.sh`'s chaos step) is XORed into every cluster seed so CI
//! sweeps fresh kill schedules without touching the source.

use msgr_check::{check_with, prop_assert, prop_assert_eq, Config, Source};
use msgr_core::topology::LogicalTopology;
use msgr_core::{ClusterConfig, ClusterError, DaemonId, ExecMode, SimCluster};
use msgr_sim::{CrashEvent, FaultPlan, Stats, MILLI};
use msgr_trace::{EventKind, Trace};
use msgr_vm::{Dir, Value};

/// Ring walk with a per-node visit counter (the recovery suite's
/// workload): the counter sum counts deliveries, so lost checkpointed
/// updates show up as a short sum and replayed-twice work as an excess.
const WALK: &str = r#"
walk(passes) {
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

/// Virtual-time ring walk: each messenger advances its clock one tick
/// per hop, so GVT keeps moving — and with it the gossip digests' GVT
/// hints, which is what makes anti-entropy exchanges actually *merge*
/// (an all-quiescent cluster gossips digests that are already equal).
const VT_WALK: &str = r#"
walk(passes) {
    int i = 0;
    node int visits;
    visits = visits + 1;
    while (i < passes) {
        M_sched_time_dlt(1.0);
        hop(ll = "ring"; ldir = +);
        visits = visits + 1;
        i = i + 1;
    }
}
"#;

fn fault_seed() -> u64 {
    std::env::var("MSGR_FAULT_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
}

fn chaos_cases() -> Config {
    Config::with_cases(256)
}

struct Scenario {
    daemons: usize,
    nodes: usize,
    msgrs: usize,
    passes: i64,
    seed: u64,
    plan: FaultPlan,
    replication: usize,
    exec: ExecMode,
    trace: bool,
    trace_capacity: Option<usize>,
}

/// A 5–8 daemon cluster, `k = 2`, with **two** permanent kills: a victim
/// and its ring successor — which is exactly the victim's first
/// checkpoint-replica holder, so the victim's newest snapshot may
/// survive only on the second holder. Kill times are drawn
/// independently, so the plan covers both orders: holder-first (the
/// victim re-replicates to the next live successors) and victim-first
/// (the named heir can itself die mid-recovery, forcing the quorum to
/// re-decide at a higher seq). Neither kill ever hits daemon 0 (the GVT
/// coordinator) and two kills are always a strict minority of ≥5.
fn arb_double_kill_scenario(s: &mut Source) -> Scenario {
    let daemons = s.usize_in(5..9);
    let victim = s.u32_in(1..daemons as u32 - 1);
    Scenario {
        daemons,
        nodes: s.usize_in(daemons..2 * daemons + 1),
        msgrs: s.usize_in(1..5),
        passes: s.i64_in(1..25),
        seed: s.any_u64() ^ fault_seed(),
        plan: FaultPlan {
            crashes: vec![
                CrashEvent::kill(victim, s.u64_in(0..200 * MILLI)),
                CrashEvent::kill(victim + 1, s.u64_in(0..200 * MILLI)),
            ],
            ..FaultPlan::none()
        },
        replication: 2,
        exec: if s.bool_with(0.5) { ExecMode::Compiled } else { ExecMode::Interp },
        trace: false,
        trace_capacity: None,
    }
}

struct RunResult {
    faults: Vec<(msgr_vm::MessengerId, String)>,
    live_leak: i64,
    visits: i64,
    stats: Stats,
    trace: Option<Trace>,
}

/// The scenario's cluster, ring built and walkers injected, not yet run.
fn ring_cluster(sc: &Scenario, program: &str) -> Result<SimCluster, String> {
    let mut topo = LogicalTopology::new();
    for i in 0..sc.nodes {
        topo.node(Value::str(format!("p{i}")), DaemonId((i % sc.daemons) as u16));
    }
    for i in 0..sc.nodes {
        topo.link(
            Value::str(format!("p{i}")),
            Value::str(format!("p{}", (i + 1) % sc.nodes)),
            Value::str("ring"),
            Dir::Forward,
        );
    }
    let mut cfg = ClusterConfig::new(sc.daemons);
    cfg.seed = sc.seed;
    cfg.faults = sc.plan.clone();
    cfg.replication = sc.replication;
    cfg.exec = sc.exec;
    cfg.trace.enabled = sc.trace;
    if let Some(cap) = sc.trace_capacity {
        cfg.trace.capacity = cap;
    }
    // These walks finish in well under a million events; a run that
    // needs more is stalled, and the tight budget turns "hang for the
    // full default budget" into a fast, seeded counterexample.
    cfg.max_events = 5_000_000;
    let mut cluster = SimCluster::new(cfg);
    cluster.build(&topo).map_err(|e| e.to_string())?;
    let pid = cluster.register_program(&msgr_lang::compile(program).map_err(|e| e.to_string())?);
    for m in 0..sc.msgrs {
        cluster
            .inject_at(&Value::str(format!("p{}", m % sc.nodes)), pid, &[Value::Int(sc.passes)])
            .map_err(|e| e.to_string())?;
    }
    Ok(cluster)
}

fn run_ring(sc: &Scenario, program: &str) -> Result<RunResult, String> {
    let mut cluster = ring_cluster(sc, program)?;
    let report = cluster.run().map_err(|e| e.to_string())?;
    let mut visits = 0i64;
    for i in 0..sc.nodes {
        if let Some(Value::Int(v)) =
            cluster.node_var_by_name(&Value::str(format!("p{i}")), "visits")
        {
            visits += v;
        }
    }
    Ok(RunResult {
        faults: report.faults.clone(),
        live_leak: report.live_leak,
        visits,
        stats: report.stats.clone(),
        trace: report.trace.clone(),
    })
}

/// Exactly-once across a double death: both victims are buried by
/// decree, both are restored from a surviving replica, and the walk's
/// visit sum is exact — no update lost with the primary holder, none
/// replayed twice through the cascaded failovers.
fn assert_double_recovery(sc: &Scenario, r: &RunResult) -> Result<(), String> {
    let expected = sc.msgrs as i64 * (sc.passes + 1);
    prop_assert!(r.faults.is_empty(), "unexpected faults: {:?}", r.faults);
    prop_assert_eq!(r.live_leak, 0);
    prop_assert_eq!(r.visits, expected);
    prop_assert_eq!(r.stats.counter("xport_gave_up"), 0);
    prop_assert_eq!(r.stats.counter("kills"), 2);
    prop_assert_eq!(r.stats.counter("restores"), 2, "both victims must fail over");
    prop_assert!(r.stats.counter("checkpoints") > 0, "recovery-armed runs must checkpoint");
    prop_assert!(
        r.stats.counter("ckpt_replicas") > 0,
        "k = 2 must actually push write-ahead replicas"
    );
    Ok(())
}

#[test]
fn quorum_recovery_survives_victim_and_replica_holder() {
    check_with(chaos_cases(), "quorum_recovery_survives_victim_and_replica_holder", |s| {
        let sc = arb_double_kill_scenario(s);
        let r = run_ring(&sc, WALK)?;
        assert_double_recovery(&sc, &r)
    });
}

#[test]
fn losing_every_checkpoint_copy_is_a_typed_error() {
    // At k = 1 a victim's only replica lives on its next-alive
    // successor. Killing both at the same instant is a plan
    // `FaultPlan::validate` accepts (2 of 8 is a strict minority,
    // daemon 0 survives), yet nothing can restore the victim: the run
    // must end with an error naming it, not panic or spin.
    let sc = Scenario {
        daemons: 8,
        nodes: 16,
        msgrs: 4,
        passes: 40,
        seed: 7 ^ fault_seed(),
        plan: FaultPlan {
            crashes: vec![CrashEvent::kill(3, 20 * MILLI), CrashEvent::kill(4, 20 * MILLI)],
            ..FaultPlan::none()
        },
        replication: 1,
        exec: ExecMode::Interp,
        trace: false,
        trace_capacity: None,
    };
    sc.plan.validate(sc.daemons).expect("the plan is legal");
    let err = ring_cluster(&sc, WALK).expect("build").run().expect_err("daemon 3 is unrecoverable");
    assert_eq!(err, ClusterError::CheckpointLost { victim: DaemonId(3), replicas: 1 });
    assert!(err.to_string().contains("daemon d3"), "message must name the victim: {err}");
}

#[test]
fn quorum_recovery_survives_double_kill_under_transient_faults() {
    // Frame loss, duplication, and reordering compose with the double
    // kill: the retransmit layer hides the network faults, re-proposal
    // at a higher ballot heals lost control frames, and the replica on
    // the second holder hides the loss of the first.
    check_with(chaos_cases(), "quorum_recovery_survives_double_kill_under_transient_faults", |s| {
        let mut sc = arb_double_kill_scenario(s);
        sc.plan.drop_p = s.f64_in(0.0, 0.05);
        sc.plan.dup_p = s.f64_in(0.0, 0.05);
        sc.plan.reorder_p = s.f64_in(0.0, 0.05);
        sc.plan.reorder_delay = s.u64_in(MILLI / 10..2 * MILLI);
        let r = run_ring(&sc, WALK)?;
        assert_double_recovery(&sc, &r)
    });
}

#[test]
fn quorum_double_kill_traces_are_byte_identical() {
    // Identical config + kill schedule ⇒ byte-identical merged trace:
    // proposals, decrees, gossip exchanges, replica pushes, and both
    // restores serialize to the same JSONL — the control plane is part
    // of the deterministic surface. Sizes are a notch smaller than the
    // main chaos suite because every case runs the cluster twice.
    check_with(chaos_cases(), "quorum_double_kill_traces_are_byte_identical", |s| {
        let daemons = s.usize_in(5..7);
        let victim = s.u32_in(1..daemons as u32 - 1);
        let sc = Scenario {
            daemons,
            nodes: s.usize_in(daemons..2 * daemons),
            msgrs: s.usize_in(1..4),
            passes: s.i64_in(1..10),
            seed: s.any_u64() ^ fault_seed(),
            plan: FaultPlan {
                crashes: vec![
                    CrashEvent::kill(victim, s.u64_in(0..200 * MILLI)),
                    CrashEvent::kill(victim + 1, s.u64_in(0..200 * MILLI)),
                ],
                ..FaultPlan::none()
            },
            replication: 2,
            exec: if s.bool_with(0.5) { ExecMode::Compiled } else { ExecMode::Interp },
            trace: true,
            trace_capacity: None,
        };
        let a = run_ring(&sc, WALK)?.trace.ok_or("tracing was enabled but no trace came back")?;
        let b = run_ring(&sc, WALK)?.trace.ok_or("tracing was enabled but no trace came back")?;
        let (ja, jb) = (a.to_jsonl(), b.to_jsonl());
        prop_assert!(ja == jb, "same-seed traces differ: {:?}", a.diff(&b, 5));
        let counts: std::collections::HashMap<&str, u64> = a.counts().into_iter().collect();
        for ev in ["ctrl_propose", "ctrl_decide", "kill", "restore", "ckpt_replica"] {
            prop_assert!(
                counts.get(ev).copied().unwrap_or(0) > 0,
                "double-kill trace is missing `{}` events; got {:?}",
                ev,
                counts
            );
        }
        Ok(())
    });
}

/// The lossy double-kill run the two tests below share.
fn gut_mid_gossip(seed: u64, trace_capacity: Option<usize>) -> Scenario {
    Scenario {
        daemons: 5,
        nodes: 10,
        msgrs: 4,
        passes: 12,
        seed,
        // Loss heavy enough that fire-and-forget control traffic (GVT
        // advances, decree learns) goes missing regularly, leaving the
        // stale windows that anti-entropy exists to heal.
        plan: FaultPlan {
            drop_p: 0.15,
            dup_p: 0.0,
            reorder_p: 0.0,
            reorder_delay: MILLI,
            crashes: vec![CrashEvent::kill(2, 50 * MILLI), CrashEvent::kill(3, 120 * MILLI)],
        },
        replication: 2,
        exec: ExecMode::Interp,
        trace: true,
        trace_capacity,
    }
}

/// Flight-recorder drop accounting across `Daemon::gut()`: a killed
/// daemon's ring survives volatile-state destruction, so its pre-crash
/// window — the gossip exchanges and frames it was mid-way through —
/// must reach the merged trace even when a tiny ring capacity forces
/// oldest-event drops. Runs the same seeded double-kill chaos scenario
/// twice: once with a roomy ring (zero drops, the reference emission
/// stream) and once with a 96-event ring, then checks the small run
/// kept exactly the **newest** suffix of every daemon's stream and
/// counted every evicted event. That holds on every schedule, so
/// `MSGR_FAULT_SEED` is mixed into the seed.
#[test]
fn recorder_drop_accounting_survives_gut_mid_gossip() {
    let sc = |capacity| gut_mid_gossip(0xC0FFEE ^ fault_seed(), capacity);
    let full = run_ring(&sc(None), VT_WALK).expect("reference run completes");
    let small = run_ring(&sc(Some(96)), VT_WALK).expect("bounded run completes");
    let full = full.trace.expect("reference trace");
    let small = small.trace.expect("bounded trace");
    assert_eq!(full.dropped, 0, "the roomy ring must capture the whole emission stream");
    assert!(small.dropped > 0, "a 96-event ring must overflow on this workload");

    // Oldest-drop accounting: everything not retained was counted.
    assert_eq!(
        small.dropped as usize,
        full.events.len() - small.events.len(),
        "every evicted event must be counted, none double-counted"
    );

    // Per daemon, the bounded ring holds exactly the newest suffix of
    // the reference stream — flight-recorder semantics, including for
    // the two gutted daemons whose rings outlived their kill.
    let mut by_daemon: std::collections::BTreeMap<u16, (Vec<_>, Vec<_>)> = Default::default();
    for e in &full.events {
        by_daemon.entry(e.daemon).or_default().0.push(e);
    }
    for e in &small.events {
        by_daemon.entry(e.daemon).or_default().1.push(e);
    }
    for (d, (f, s)) in &by_daemon {
        assert!(s.len() <= 96, "daemon {d} retained {} events, over capacity", s.len());
        assert!(!s.is_empty(), "daemon {d} lost its entire window");
        assert_eq!(
            &f[f.len() - s.len()..],
            &s[..],
            "daemon {d}'s bounded ring is not the newest suffix of its stream"
        );
    }

    // The pre-crash window of both victims reached the merged trace:
    // the kill marker itself plus events from before the kill — emitted
    // into a ring that `gut()` deliberately leaves intact.
    for victim in [2u16, 3u16] {
        let kill_rt = small
            .events
            .iter()
            .find(|e| e.daemon == victim && matches!(e.kind, EventKind::Kill))
            .unwrap_or_else(|| panic!("daemon {victim}'s kill marker missing from bounded trace"))
            .rt;
        assert!(
            small.events.iter().any(|e| e.daemon == victim && e.rt < kill_rt),
            "daemon {victim}'s pre-crash window was lost with its volatile state"
        );
    }
}

/// The window those kills interrupt is a live gossip exchange: the
/// anti-entropy schedule demonstrably *merges* a digest, not just pushes
/// them. Whether a lost advance leaves a stale window before the run
/// ends depends on the draw, so this is a statement about one schedule:
/// the seed is fixed, not mixed with `MSGR_FAULT_SEED`.
#[test]
fn lossy_double_kill_run_merges_a_gossip_digest() {
    let run = run_ring(&gut_mid_gossip(0xC0FFEE, None), VT_WALK).expect("run completes");
    let counts: std::collections::HashMap<&str, u64> =
        run.trace.expect("trace").counts().into_iter().collect();
    assert!(
        counts.get("gossip_merge").copied().unwrap_or(0) > 0,
        "quorum-mode chaos run never merged a gossip digest; got {counts:?}"
    );
}

/// Soak: cascading permanent kills — including an **adjacent pair**, so
/// one victim's first replica holder is the next victim — under
/// sustained loss/duplication/reordering plus two transient partition
/// windows, with a long walk. Run by `scripts/ci.sh --soak` (or
/// `cargo test -- --ignored`).
#[test]
#[ignore = "soak: long chaos run, exercised by scripts/ci.sh --soak"]
fn soak_cascading_kills_with_replicated_checkpoints() {
    let sc = Scenario {
        daemons: 8,
        nodes: 16,
        msgrs: 6,
        passes: 300,
        seed: 0x0DDC0DE ^ fault_seed(),
        plan: FaultPlan {
            drop_p: 0.05,
            dup_p: 0.02,
            reorder_p: 0.02,
            reorder_delay: MILLI,
            crashes: vec![
                // 2 then 3: daemon 3 holds daemon 2's freshest replica
                // when it dies, and has itself just finished a restore.
                CrashEvent::kill(2, 30 * MILLI),
                CrashEvent::kill(3, 90 * MILLI),
                CrashEvent::kill(6, 150 * MILLI),
                // Two partition windows squeezing the live quorum while
                // decrees are in flight.
                CrashEvent::transient(1, 60 * MILLI, 20 * MILLI),
                CrashEvent::transient(4, 140 * MILLI, 20 * MILLI),
            ],
        },
        replication: 2,
        exec: ExecMode::Compiled,
        trace: false,
        trace_capacity: None,
    };
    let r = run_ring(&sc, WALK).expect("run completes");
    assert!(r.faults.is_empty(), "{:?}", r.faults);
    assert_eq!(r.live_leak, 0);
    assert_eq!(r.visits, 6 * 301);
    assert_eq!(r.stats.counter("kills"), 3);
    assert_eq!(r.stats.counter("restores"), 3, "every death must fail over");
    assert_eq!(r.stats.counter("xport_gave_up"), 0);
    assert!(r.stats.counter("ckpt_replicas") > 0);
}

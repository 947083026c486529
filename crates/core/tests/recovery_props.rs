//! Crash-recovery property suite: a cluster must survive the
//! **permanent death** of worker daemons — failure detection, checkpoint
//! restore on the successor, logical-node failover, and GVT membership
//! change — and still deliver every messenger's work exactly once.
//!
//! Every property runs 256 generated cases through `msgr-check`, so a
//! failing case prints a `MSGR_CHECK_SEED=<n>` line and replays (and
//! shrinks) deterministically. `MSGR_FAULT_SEED=<n>` (set by
//! `scripts/ci.sh`'s chaos step) is XORed into every cluster seed so CI
//! sweeps fresh kill schedules without touching the source.

use msgr_check::{check_with, prop_assert, prop_assert_eq, Config, Source};
use msgr_core::topology::LogicalTopology;
use msgr_core::{ClusterConfig, DaemonId, ExecMode, SimCluster};
use msgr_sim::{CrashEvent, FaultPlan, Stats, MILLI};
use msgr_vm::{Dir, Value};

/// Ring walk with a per-node visit counter (same workload as the
/// transient-fault suite): the counter sum counts deliveries, so lost
/// checkpointed updates show up as a short sum and replayed-twice work
/// as an excess.
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

/// Virtual-time ring walk: each messenger advances its clock one tick per
/// hop, so progress requires GVT to keep advancing — with the victim
/// evicted and the restored messengers' virtual times respected.
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
    exec: ExecMode,
}

/// A cluster of 2–8 daemons with one permanent worker kill (never daemon
/// 0 — it hosts the GVT coordinator) somewhere in the first ~200 ms,
/// i.e. anywhere from "before the first checkpoint" to "mid-run".
/// The execution engine is drawn too: recovery must be indifferent to it
/// (a compiled messenger checkpoints, dies, and restores with the same
/// wire state as an interpreted one).
fn arb_kill_scenario(s: &mut Source) -> Scenario {
    let daemons = s.usize_in(2..9);
    let victim = s.u32_in(1..daemons as u32);
    Scenario {
        daemons,
        nodes: s.usize_in(daemons..2 * daemons + 1),
        msgrs: s.usize_in(1..5),
        passes: s.i64_in(1..25),
        seed: s.any_u64() ^ fault_seed(),
        plan: FaultPlan {
            crashes: vec![CrashEvent::kill(victim, s.u64_in(0..200 * MILLI))],
            ..FaultPlan::none()
        },
        exec: if s.bool_with(0.5) { ExecMode::Compiled } else { ExecMode::Interp },
    }
}

struct RunResult {
    faults: Vec<(msgr_vm::MessengerId, String)>,
    live_leak: i64,
    visits: i64,
    sim_seconds: f64,
    events: u64,
    stats: Stats,
}

fn run_ring(sc: &Scenario, program: &str) -> Result<RunResult, String> {
    run_ring_with(sc, program, |_| {})
}

/// [`run_ring`] with a last word on the configuration.
fn run_ring_with(
    sc: &Scenario,
    program: &str,
    tweak: impl Fn(&mut ClusterConfig),
) -> Result<RunResult, String> {
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
    cfg.exec = sc.exec;
    // These walks finish in well under a million events; a run that
    // needs more is stalled, and the tight budget turns "hang for the
    // full default budget" into a fast, seeded counterexample.
    cfg.max_events = 5_000_000;
    tweak(&mut cfg);
    let mut cluster = SimCluster::new(cfg);
    cluster.build(&topo).map_err(|e| e.to_string())?;
    let pid = cluster.register_program(&msgr_lang::compile(program).map_err(|e| e.to_string())?);
    for m in 0..sc.msgrs {
        cluster
            .inject_at(&Value::str(format!("p{}", m % sc.nodes)), pid, &[Value::Int(sc.passes)])
            .map_err(|e| e.to_string())?;
    }
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
        sim_seconds: report.seconds,
        events: report.events,
        stats: report.stats,
    })
}

/// Exactly-once across death and failover: every messenger finishes its
/// full walk, no checkpointed update is lost, and no replayed segment
/// double-counts. `live_leak == 0` is the census half of the claim:
/// death + restore must be a net-zero population change.
fn assert_exactly_once(sc: &Scenario, r: &RunResult) -> Result<(), String> {
    let expected = sc.msgrs as i64 * (sc.passes + 1);
    prop_assert!(r.faults.is_empty(), "unexpected faults: {:?}", r.faults);
    prop_assert_eq!(r.live_leak, 0);
    prop_assert_eq!(r.visits, expected);
    prop_assert_eq!(r.stats.counter("xport_gave_up"), 0);
    // The kill always fires, and failover must always follow it.
    prop_assert_eq!(r.stats.counter("kills"), 1);
    prop_assert_eq!(r.stats.counter("restores"), 1);
    prop_assert!(r.stats.counter("checkpoints") > 0, "recovery-armed runs must checkpoint");
    Ok(())
}

#[test]
fn recovery_no_lost_or_doubled_updates_under_kill() {
    check_with(chaos_cases(), "recovery_no_lost_or_doubled_updates_under_kill", |s| {
        let sc = arb_kill_scenario(s);
        let r = run_ring(&sc, WALK)?;
        assert_exactly_once(&sc, &r)
    });
}

#[test]
fn recovery_is_exactly_once_at_every_replication_factor() {
    // The rest of this suite runs k = 1. Replication up to k = 3 must
    // give the same exactly-once failover.
    check_with(chaos_cases(), "recovery_is_exactly_once_at_every_replication_factor", |s| {
        let sc = arb_kill_scenario(s);
        let k = s.usize_in(1..4);
        let r = run_ring_with(&sc, WALK, |cfg| cfg.replication = k)?;
        assert_exactly_once(&sc, &r)
    });
}

#[test]
fn recovery_gvt_never_stalls_after_eviction() {
    // The virtual-time walk cannot make progress unless GVT keeps
    // advancing; a stall (dead daemon never evicted, or GVT advanced
    // past the restored messengers so they can never run) shows up as a
    // `Stalled` run error or a short visit sum.
    check_with(chaos_cases(), "recovery_gvt_never_stalls_after_eviction", |s| {
        let mut sc = arb_kill_scenario(s);
        sc.passes = s.i64_in(1..10); // virtual-time walks are slower
        let r = run_ring(&sc, VT_WALK)?;
        assert_exactly_once(&sc, &r)?;
        prop_assert!(
            r.stats.counter("gvt_rounds") > 0,
            "the virtual-time walk must have exercised GVT"
        );
        prop_assert!(r.stats.counter("evictions") > 0, "the victim must have been evicted");
        Ok(())
    });
}

#[test]
fn recovery_runs_are_deterministic() {
    // Identical config + kill schedule ⇒ byte-identical outcome: same
    // visit counts, f64-bit-identical simulated time, same counters —
    // failure detection, failover, and replay included.
    check_with(chaos_cases(), "recovery_runs_are_deterministic", |s| {
        let sc = arb_kill_scenario(s);
        let a = run_ring(&sc, WALK)?;
        let b = run_ring(&sc, WALK)?;
        prop_assert_eq!(a.visits, b.visits);
        prop_assert_eq!(a.sim_seconds.to_bits(), b.sim_seconds.to_bits());
        prop_assert_eq!(a.events, b.events);
        prop_assert_eq!(
            a.stats.counters().collect::<Vec<_>>(),
            b.stats.counters().collect::<Vec<_>>()
        );
        Ok(())
    });
}

#[test]
fn recovery_survives_kill_plus_transient_faults() {
    // Frame loss, duplication, and reordering compose with a permanent
    // kill: the retransmit layer hides the network faults while the
    // checkpoint/failover layer hides the death.
    check_with(chaos_cases(), "recovery_survives_kill_plus_transient_faults", |s| {
        let mut sc = arb_kill_scenario(s);
        sc.plan.drop_p = s.f64_in(0.0, 0.05);
        sc.plan.dup_p = s.f64_in(0.0, 0.05);
        sc.plan.reorder_p = s.f64_in(0.0, 0.05);
        sc.plan.reorder_delay = s.u64_in(MILLI / 10..2 * MILLI);
        let r = run_ring(&sc, WALK)?;
        assert_exactly_once(&sc, &r)
    });
}

/// Soak: sequential permanent deaths until half the cluster is gone,
/// under sustained loss/duplication/reordering, with a long walk. Run by
/// `scripts/ci.sh --soak` (or `cargo test -- --ignored`).
#[test]
#[ignore = "soak: long chaos run, exercised by scripts/ci.sh --soak"]
fn soak_survives_cascading_permanent_kills() {
    let sc = Scenario {
        daemons: 8,
        nodes: 16,
        msgrs: 6,
        passes: 300,
        seed: 0xDEAD5EED ^ fault_seed(),
        plan: FaultPlan {
            drop_p: 0.05,
            dup_p: 0.02,
            reorder_p: 0.02,
            reorder_delay: MILLI,
            // Three cascading deaths: each failover's successor ring is
            // smaller than the last, and daemon 7's successor wraps.
            crashes: vec![
                CrashEvent::kill(2, 30 * MILLI),
                CrashEvent::kill(5, 90 * MILLI),
                CrashEvent::kill(7, 150 * MILLI),
            ],
        },
        exec: ExecMode::Compiled,
    };
    let r = run_ring(&sc, WALK).expect("run completes");
    assert!(r.faults.is_empty(), "{:?}", r.faults);
    assert_eq!(r.live_leak, 0);
    assert_eq!(r.visits, 6 * 301);
    assert_eq!(r.stats.counter("kills"), 3);
    assert_eq!(r.stats.counter("restores"), 3, "every death must fail over");
    assert_eq!(r.stats.counter("xport_gave_up"), 0);
}

/// Deterministic single-case smoke with a mid-run kill — the minimal
/// end-to-end story, kept out of the generator so its counters can be
/// asserted tightly. Also the example documented in the README.
#[test]
fn recovery_smoke_mid_run_kill() {
    let sc = Scenario {
        daemons: 4,
        nodes: 8,
        msgrs: 3,
        passes: 40,
        seed: 0xD1E,
        plan: FaultPlan { crashes: vec![CrashEvent::kill(2, 50 * MILLI)], ..FaultPlan::none() },
        exec: ExecMode::Interp,
    };
    let r = run_ring(&sc, WALK).expect("run completes");
    assert!(r.faults.is_empty(), "{:?}", r.faults);
    assert_eq!(r.live_leak, 0);
    assert_eq!(r.visits, 3 * 41);
    assert_eq!(r.stats.counter("kills"), 1);
    assert_eq!(r.stats.counter("fd_deaths"), 1, "exactly one Dead verdict acted on");
    assert_eq!(r.stats.counter("restores"), 1);
    assert!(r.stats.counter("evictions") >= 3, "every survivor evicts the victim");
    assert!(r.stats.counter("restored_nodes") > 0, "the victim hosted ring nodes");
    assert!(r.stats.counter("checkpoint_bytes") > 0);
}

/// The same mid-run-kill acceptance scenario under the compiled engine:
/// a parked compiled messenger checkpoints, dies with its daemon, and
/// restores on the successor with the same wire state an interpreted
/// one would — so every tightly-asserted counter, the visit sum, and
/// the simulated clock must match the interpreter run bit for bit.
#[test]
fn recovery_smoke_mid_run_kill_compiled() {
    let sc = |exec: ExecMode| Scenario {
        daemons: 4,
        nodes: 8,
        msgrs: 3,
        passes: 40,
        seed: 0xD1E,
        plan: FaultPlan { crashes: vec![CrashEvent::kill(2, 50 * MILLI)], ..FaultPlan::none() },
        exec,
    };
    let r = run_ring(&sc(ExecMode::Compiled), WALK).expect("run completes");
    assert!(r.faults.is_empty(), "{:?}", r.faults);
    assert_eq!(r.live_leak, 0);
    assert_eq!(r.visits, 3 * 41);
    assert_eq!(r.stats.counter("kills"), 1);
    assert_eq!(r.stats.counter("fd_deaths"), 1, "exactly one Dead verdict acted on");
    assert_eq!(r.stats.counter("restores"), 1);
    assert!(r.stats.counter("compile_programs") > 0, "the walk must have been compiled");
    let interp = run_ring(&sc(ExecMode::Interp), WALK).expect("run completes");
    assert_eq!(r.visits, interp.visits);
    assert_eq!(r.sim_seconds.to_bits(), interp.sim_seconds.to_bits());
    assert_eq!(r.events, interp.events);
    assert_eq!(r.stats.counters().collect::<Vec<_>>(), interp.stats.counters().collect::<Vec<_>>());
}

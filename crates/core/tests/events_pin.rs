//! The simulated interleaving, pinned by its event count.
//!
//! The goldens pin counters and simulated seconds; this pins the one
//! number that moves when the order of simulation events moves: the
//! engine's processed-event count, summed over a fixed list of seeded
//! chaos scenarios, together with an FNV-1a hash of every counter the
//! runs report. The seeds are fixed here and ignore `MSGR_FAULT_SEED`,
//! and the execution engine is fixed too, so the pin holds under every
//! CI stage.
//!
//! A change that should leave the simulation alone (a refactor of the
//! platforms, say) must leave both numbers exactly as they are.

use msgr_core::topology::LogicalTopology;
use msgr_core::{ClusterConfig, DaemonId, ExecMode, SimCluster};
use msgr_sim::{CrashEvent, FaultPlan, MILLI};
use msgr_vm::{Dir, Value};

/// A ring walk that ends with a virtual hop back to `p0`, so every run
/// also resolves a name through the directory.
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
    hop(ll = virtual; ln = "p0");
    visits = visits + 1;
}
"#;

struct Scenario {
    daemons: usize,
    nodes: usize,
    msgrs: usize,
    passes: i64,
    seed: u64,
    replication: usize,
    plan: FaultPlan,
}

fn scenarios() -> Vec<Scenario> {
    let lossy = |drop_p, dup_p, crashes| FaultPlan {
        drop_p,
        dup_p,
        reorder_p: 0.05,
        reorder_delay: 2 * MILLI,
        crashes,
    };
    vec![
        // Transient loss plus a crash/restart window.
        Scenario {
            daemons: 4,
            nodes: 8,
            msgrs: 3,
            passes: 20,
            seed: 11,
            replication: 1,
            plan: lossy(0.05, 0.02, vec![CrashEvent::transient(2, 10 * MILLI, 20 * MILLI)]),
        },
        Scenario {
            daemons: 6,
            nodes: 6,
            msgrs: 2,
            passes: 30,
            seed: 424_242,
            replication: 1,
            plan: lossy(0.1, 0.0, vec![CrashEvent::transient(1, 5 * MILLI, 30 * MILLI)]),
        },
        // A permanent kill, restored from its checkpoint.
        Scenario {
            daemons: 4,
            nodes: 8,
            msgrs: 3,
            passes: 20,
            seed: 7,
            replication: 1,
            plan: FaultPlan { crashes: vec![CrashEvent::kill(2, 30 * MILLI)], ..FaultPlan::none() },
        },
        Scenario {
            daemons: 5,
            nodes: 10,
            msgrs: 4,
            passes: 15,
            seed: 2024,
            replication: 2,
            plan: lossy(0.02, 0.01, vec![CrashEvent::kill(3, 60 * MILLI)]),
        },
    ]
}

/// FNV-1a, 64-bit.
fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Run one scenario: its engine event count, and `hash` folded over its
/// counters in name order.
fn run(sc: &Scenario, hash: u64) -> (u64, u64) {
    let mut topo = LogicalTopology::new();
    for i in 0..sc.nodes {
        topo.node(Value::str(format!("p{i}")), DaemonId((i % sc.daemons) as u16));
    }
    for i in 0..sc.nodes {
        let (from, to) = (format!("p{i}"), format!("p{}", (i + 1) % sc.nodes));
        topo.link(Value::str(from), Value::str(to), Value::str("ring"), Dir::Forward);
    }
    let mut cfg = ClusterConfig::new(sc.daemons);
    cfg.seed = sc.seed;
    cfg.faults = sc.plan.clone();
    cfg.exec = ExecMode::Interp;
    cfg.replication = sc.replication;
    let mut c = SimCluster::new(cfg);
    c.build(&topo).unwrap();
    let pid = c.register_program(&msgr_lang::compile(WALK).unwrap());
    for m in 0..sc.msgrs {
        c.inject_at(&Value::str(format!("p{}", m % sc.nodes)), pid, &[Value::Int(sc.passes)])
            .unwrap();
    }
    let report = c.run().unwrap();
    assert!(report.faults.is_empty(), "seed {}: {:?}", sc.seed, report.faults);
    assert_eq!(report.live_leak, 0, "seed {}", sc.seed);
    // Every scenario does what it is listed for: the walkers all jump by
    // name, and each fault fires and heals.
    let count = |key| report.stats.counter(key);
    assert_eq!(count("virtual_hops"), sc.msgrs as u64, "seed {}", sc.seed);
    let kill = sc.plan.has_kills();
    assert_eq!((count("kills"), count("restores")), (kill as u64, kill as u64), "seed {}", sc.seed);
    assert_eq!((count("crashes"), count("restarts")), (!kill as u64, !kill as u64));
    if sc.plan.drop_p > 0.0 {
        assert!(count("net_frames_lost") > 0 && count("xport_retransmits") > 0, "seed {}", sc.seed);
    }
    let hash =
        report.stats.counters().fold(hash, |h, (k, v)| fnv(fnv(h, k.as_bytes()), &v.to_le_bytes()));
    (report.events, hash)
}

#[test]
fn chaos_event_count_and_counters_are_pinned() {
    let (mut events, mut hash) = (0, 0xcbf2_9ce4_8422_2325);
    for sc in &scenarios() {
        let (e, h) = run(sc, hash);
        events += e;
        hash = h;
    }
    assert_eq!((events, hash), (7752, 13336859507107978500), "the simulated interleaving moved");
}

//! Chaos property suite: the reliable transport must deliver every
//! messenger **exactly once** under randomized frame loss, duplication,
//! reordering, and daemon crash/restart — across random cluster shapes
//! and seeds.
//!
//! Every property runs 256 generated cases through `msgr-check`, so a
//! failing case prints a `MSGR_CHECK_SEED=<n>` line and replays (and
//! shrinks) deterministically. Additionally, `MSGR_FAULT_SEED=<n>` (set
//! by `scripts/ci.sh`'s chaos step, which logs the value) is XORed into
//! every cluster seed so CI can sweep fresh fault schedules without
//! touching the source.
//!
//! ## Mutation check
//!
//! `broken_retransmit_is_caught` proves the suite has teeth: it cripples
//! the retransmit layer the way a buggy implementation would (give up
//! after a single retry) and asserts the exactly-once property *fails*
//! under loss. If someone breaks retransmission — stops arming timers,
//! drops the unacked buffer, gives up too early — these properties are
//! what catches it.

use msgr_check::{check_with, prop_assert, prop_assert_eq, run_check, Config, Source};
use msgr_core::topology::LogicalTopology;
use msgr_core::{ClusterConfig, DaemonId, SimCluster};
use msgr_sim::{CrashEvent, FaultPlan, Stats, MILLI};
use msgr_vm::{Dir, Value};

/// Each messenger walks the ring `passes` hops, incrementing a resident
/// counter at every node it lands on — so the global counter sum counts
/// deliveries. Lost frames show up as a short sum, duplicated deliveries
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

/// CI-supplied extra entropy (logged by the chaos step for replay);
/// 0 when unset.
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
}

/// A random cluster shape: 1–8 daemons, a ring of at least as many
/// nodes, a handful of messengers.
fn arb_scenario(s: &mut Source, plan: FaultPlan) -> Scenario {
    let daemons = s.usize_in(1..9);
    Scenario {
        daemons,
        nodes: s.usize_in(daemons..2 * daemons + 1),
        msgrs: s.usize_in(1..5),
        passes: s.i64_in(1..25),
        seed: s.any_u64() ^ fault_seed(),
        plan,
    }
}

/// Random fault probabilities, each up to 10% (combined up to 30%).
fn arb_rates(s: &mut Source) -> FaultPlan {
    FaultPlan {
        drop_p: s.f64_in(0.0, 0.10),
        dup_p: s.f64_in(0.0, 0.10),
        reorder_p: s.f64_in(0.0, 0.10),
        reorder_delay: s.u64_in(MILLI / 10..5 * MILLI),
        crashes: Vec::new(),
    }
}

/// Random crash/restart schedule over the scenario's daemons.
fn arb_crashes(s: &mut Source, daemons: usize) -> Vec<CrashEvent> {
    // Transient windows only, and well under `DEAD_AFTER` (240 ms), so
    // fail-recover scenarios never trip permanent failover.
    let mut evs = s.vec_with(1..4, |s| {
        CrashEvent::transient(
            s.u32_in(0..daemons as u32),
            s.u64_in(0..40 * MILLI),
            s.u64_in(MILLI..30 * MILLI),
        )
    });
    // `FaultPlan::validate` rejects overlapping windows per host; keep
    // the earliest of any overlapping pair.
    evs.sort_by_key(|e| (e.host, e.at));
    let mut out: Vec<CrashEvent> = Vec::new();
    for e in evs {
        match out.iter().rev().find(|p| p.host == e.host) {
            Some(prev) if e.at < prev.until() => continue,
            _ => out.push(e),
        }
    }
    out
}

struct RunResult {
    faults: Vec<(msgr_vm::MessengerId, String)>,
    live_leak: i64,
    visits: i64,
    sim_seconds: f64,
    events: u64,
    stats: Stats,
}

/// Build the ring, inject the messengers, run to quiescence, and sum the
/// per-node visit counters.
fn run_ring(sc: &Scenario) -> Result<RunResult, String> {
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
    let mut cluster = SimCluster::new(cfg);
    cluster.build(&topo).map_err(|e| e.to_string())?;
    let pid = cluster.register_program(&msgr_lang::compile(WALK).map_err(|e| e.to_string())?);
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

/// Exactly-once delivery: every messenger completes its full walk and no
/// node sees an extra (duplicated) visit, at any combination of loss,
/// duplication, and reordering.
fn assert_exactly_once(sc: &Scenario, r: &RunResult) -> Result<(), String> {
    let expected = sc.msgrs as i64 * (sc.passes + 1);
    prop_assert!(r.faults.is_empty(), "unexpected faults: {:?}", r.faults);
    prop_assert_eq!(r.live_leak, 0);
    prop_assert_eq!(r.visits, expected);
    prop_assert_eq!(r.stats.counter("xport_gave_up"), 0);
    // Conservation: every allocated sequence number is eventually acked,
    // and nothing is acked twice.
    prop_assert_eq!(r.stats.counter("xport_acked"), r.stats.counter("xport_sent"));
    Ok(())
}

#[test]
fn chaos_every_messenger_completes_exactly_once() {
    check_with(chaos_cases(), "chaos_every_messenger_completes_exactly_once", |s| {
        let plan = arb_rates(s);
        let sc = arb_scenario(s, plan);
        let r = run_ring(&sc)?;
        assert_exactly_once(&sc, &r)
    });
}

/// Each injection at a star's hub replicates to every leaf in one burst,
/// so several frames leave for the same peer back to back — the shape
/// the ring walks above never produce.
const SCATTER: &str = r#"
scatter() {
    node int seen;
    hop(ll = "spoke");
    seen = seen + 1;
}
"#;

#[test]
fn chaos_scatter_delivers_exactly_once() {
    check_with(chaos_cases(), "chaos_scatter_delivers_exactly_once", |s| {
        let daemons = s.usize_in(2..6);
        // At least two leaves per daemon: every burst sends every peer
        // more than one frame.
        let leaves = s.usize_in(2 * daemons..17);
        let injections = s.usize_in(2..9);
        let topo = LogicalTopology::star(leaves, daemons);
        let mut cfg = ClusterConfig::new(daemons);
        cfg.seed = s.any_u64() ^ fault_seed();
        cfg.faults = arb_rates(s);
        let mut cluster = SimCluster::new(cfg);
        cluster.build(&topo).map_err(|e| e.to_string())?;
        let pid =
            cluster.register_program(&msgr_lang::compile(SCATTER).map_err(|e| e.to_string())?);
        for _ in 0..injections {
            cluster.inject_at(&Value::str("hub"), pid, &[]).map_err(|e| e.to_string())?;
        }
        let report = cluster.run().map_err(|e| e.to_string())?;
        let mut seen = 0i64;
        for k in 0..leaves {
            if let Some(Value::Int(v)) =
                cluster.node_var_by_name(&Value::str(format!("leaf{k}")), "seen")
            {
                seen += v;
            }
        }
        prop_assert!(report.faults.is_empty(), "unexpected faults: {:?}", report.faults);
        prop_assert_eq!(report.live_leak, 0);
        prop_assert_eq!(seen, (injections * leaves) as i64);
        prop_assert_eq!(report.stats.counter("xport_gave_up"), 0);
        let sent = report.stats.counter("xport_sent");
        prop_assert_eq!(report.stats.counter("xport_acked"), sent);
        // Leaf k lives on daemon k % daemons, so all but every
        // `daemons`-th replica crosses the transport.
        let remote = injections * (leaves - leaves.div_ceil(daemons));
        prop_assert!(sent >= remote as u64, "only {sent} frames for {remote} remote replicas");
        Ok(())
    });
}

#[test]
fn chaos_crash_restart_preserves_every_messenger() {
    check_with(chaos_cases(), "chaos_crash_restart_preserves_every_messenger", |s| {
        let mut plan = arb_rates(s);
        let daemons = s.usize_in(1..9);
        plan.crashes = arb_crashes(s, daemons);
        let mut sc = arb_scenario(s, plan);
        // Crash hosts were drawn for `daemons`; pin the scenario to it.
        sc.daemons = daemons;
        sc.nodes = sc.nodes.max(daemons);
        let r = run_ring(&sc)?;
        assert_exactly_once(&sc, &r)
    });
}

#[test]
fn chaos_faulty_runs_are_deterministic() {
    // Identical config + fault plan ⇒ byte-identical outcome: same
    // visit counts, f64-bit-identical simulated time, same counters.
    check_with(chaos_cases(), "chaos_faulty_runs_are_deterministic", |s| {
        let mut plan = arb_rates(s);
        let daemons = s.usize_in(1..9);
        if s.any_bool() {
            plan.crashes = arb_crashes(s, daemons);
        }
        let mut sc = arb_scenario(s, plan);
        sc.daemons = daemons;
        sc.nodes = sc.nodes.max(daemons);
        let a = run_ring(&sc)?;
        let b = run_ring(&sc)?;
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
fn broken_retransmit_is_caught() {
    // Mutation check (see module docs): a transport that abandons frames
    // after one retry is indistinguishable from a broken one. Under 40%
    // loss some frame is dropped twice in a row in virtually every run,
    // so the exactly-once property must report a counterexample. If this
    // test starts failing, the chaos suite has lost its ability to
    // detect delivery bugs — treat that as a broken suite, not a broken
    // transport.
    let failure = run_check(Config::default(), "broken_retransmit_is_caught", |s| {
        let sc = Scenario {
            daemons: 4,
            nodes: 8,
            msgrs: 3,
            passes: 20,
            seed: s.any_u64(),
            plan: FaultPlan::lossy(0.4),
        };
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
        cfg.retransmit.max_attempts = 2; // the "mutation"
        let mut cluster = SimCluster::new(cfg);
        cluster.build(&topo).map_err(|e| e.to_string())?;
        let pid = cluster.register_program(&msgr_lang::compile(WALK).map_err(|e| e.to_string())?);
        for m in 0..sc.msgrs {
            cluster
                .inject_at(&Value::str(format!("p{}", m % sc.nodes)), pid, &[Value::Int(sc.passes)])
                .map_err(|e| e.to_string())?;
        }
        let report = cluster.run().map_err(|e| e.to_string())?;
        prop_assert!(report.faults.is_empty(), "messengers abandoned: {:?}", report.faults);
        Ok(())
    });
    assert!(
        failure.is_err(),
        "a transport that gives up after one retry must fail the exactly-once property"
    );
}

/// Trust boundary under chaos: messengers carrying a program the
/// verifier rejected are refused **exactly once** each — loss,
/// duplication, reordering, and crash/restart replay must neither lose
/// a refusal nor repeat one (a replayed injection that faulted again
/// would double-count `verify_rejected` and leak a live messenger) —
/// while verified walkers on the same cluster still complete their
/// exactly-once delivery.
#[test]
fn chaos_quarantined_code_is_refused_exactly_once() {
    use msgr_vm::{Builder, Op};
    check_with(chaos_cases(), "chaos_quarantined_code_is_refused_exactly_once", |s| {
        let mut plan = arb_rates(s);
        let daemons = s.usize_in(1..9);
        plan.crashes = arb_crashes(s, daemons);
        let mut sc = arb_scenario(s, plan);
        sc.daemons = daemons;
        sc.nodes = sc.nodes.max(daemons);
        let bad_msgrs = s.usize_in(1..4);

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
        let mut cluster = SimCluster::new(cfg);
        cluster.build(&topo).map_err(|e| e.to_string())?;

        let pid = cluster.register_program(&msgr_lang::compile(WALK).map_err(|e| e.to_string())?);
        let mut b = Builder::new();
        let f = b.function("main", 0, 0, vec![Op::Jump(100)]); // V002: quarantined
        let bad_pid = cluster.register_program(&b.finish(f));

        for m in 0..sc.msgrs {
            cluster
                .inject_at(&Value::str(format!("p{}", m % sc.nodes)), pid, &[Value::Int(sc.passes)])
                .map_err(|e| e.to_string())?;
        }
        for m in 0..bad_msgrs {
            cluster
                .inject_at(&Value::str(format!("p{}", m % sc.nodes)), bad_pid, &[])
                .map_err(|e| e.to_string())?;
        }

        let report = cluster.run().map_err(|e| e.to_string())?;
        // Every refusal is a fault naming verification — and nothing else
        // faults.
        prop_assert_eq!(report.faults.len(), bad_msgrs);
        for (_, err) in &report.faults {
            prop_assert!(err.contains("failed verification"), "unexpected fault: {err}");
        }
        prop_assert_eq!(report.stats.counter("verify_rejected"), bad_msgrs as u64);
        prop_assert_eq!(report.live_leak, 0);
        // The verified walkers are untouched by their doomed neighbours.
        let mut visits = 0i64;
        for i in 0..sc.nodes {
            if let Some(Value::Int(v)) =
                cluster.node_var_by_name(&Value::str(format!("p{i}")), "visits")
            {
                visits += v;
            }
        }
        prop_assert_eq!(visits, sc.msgrs as i64 * (sc.passes + 1));
        Ok(())
    });
}

/// Soak test: a long bounded run under sustained 10% loss with periodic
/// crash/restart cycles across every daemon. Ignored by default; run via
/// `scripts/ci.sh --soak` (or `cargo test -- --ignored`).
#[test]
#[ignore = "soak: long chaos run, exercised by scripts/ci.sh --soak"]
fn soak_sustained_loss_and_crashes() {
    let daemons = 6usize;
    // One crash somewhere every ~40 ms for the whole expected run.
    let crashes: Vec<CrashEvent> = (0..24)
        .map(|k| {
            CrashEvent::transient((k % daemons) as u32, (10 + 40 * k as u64) * MILLI, 15 * MILLI)
        })
        .collect();
    let sc = Scenario {
        daemons,
        nodes: 12,
        msgrs: 6,
        passes: 400,
        seed: 0xD15EA5E ^ fault_seed(),
        plan: FaultPlan {
            drop_p: 0.10,
            dup_p: 0.05,
            reorder_p: 0.05,
            reorder_delay: 2 * MILLI,
            crashes,
        },
    };
    let r = run_ring(&sc).expect("soak run");
    assert!(r.events > 10_000, "soak too small to mean anything: {} events", r.events);
    assert!(r.faults.is_empty(), "faults: {:?}", r.faults);
    assert_eq!(r.live_leak, 0);
    assert_eq!(r.visits, sc.msgrs as i64 * (sc.passes + 1));
    assert_eq!(r.stats.counter("xport_gave_up"), 0);
    // Counter sanity: acks can't outnumber sends, crash machinery must
    // have actually fired, and the delivery histogram saw every frame.
    let sent = r.stats.counter("xport_sent");
    let acked = r.stats.counter("xport_acked");
    assert_eq!(acked, sent, "every frame acked exactly once");
    assert!(r.stats.counter("xport_retransmits") > 0, "loss must force retransmits");
    assert_eq!(r.stats.counter("crashes"), 24);
    assert_eq!(r.stats.counter("restarts"), 24);
    let h = r.stats.histogram("xport_delivery_ns").expect("delivery histogram");
    assert_eq!(h.count(), acked);
    assert!(h.max() < 60_000 * MILLI, "delivery latency exploded: {} ns", h.max());
    assert!(r.sim_seconds > 0.0);
}

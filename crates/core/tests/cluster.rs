//! End-to-end cluster tests: MSGR-C scripts compiled, injected, and run
//! on both platforms.

use msgr_core::config::{NetKind, VtMode};
use msgr_core::topology::LogicalTopology;
use msgr_core::{ClusterConfig, ClusterError, DaemonId, SimCluster, ThreadCluster};
use msgr_lang::compile;
use msgr_sim::{CrashEvent, FaultPlan, MILLI};
use msgr_vm::{Dir, ProgramId, Value, Vt};

fn sim(n: usize) -> SimCluster {
    let mut cfg = ClusterConfig::new(n);
    cfg.net = NetKind::Ideal; // fast functional tests
    SimCluster::new(cfg)
}

/// The platforms, for the tests that must hold on both.
#[derive(Clone, Copy, Debug)]
enum On {
    Sim,
    Threads,
}

const BOTH: [On; 2] = [On::Sim, On::Threads];

/// Run `$body` against a fresh `$n`-daemon cluster `$c` on platform
/// `$on`. The body builds, injects, runs and checks, and ends with the
/// run's report; a simulated run must also leave no live messenger.
macro_rules! on {
    ($on:expr, $n:expr, |$c:ident| $body:block) => {
        match $on {
            On::Sim => {
                let mut $c = sim($n);
                let report = $body;
                assert_eq!(report.live_leak, 0, "{:?}", report.faults);
            }
            On::Threads => {
                let mut $c = ThreadCluster::new(ClusterConfig::new($n)).unwrap();
                $body;
            }
        }
    };
}

#[test]
fn single_messenger_updates_node_vars() {
    let prog = compile(
        r#"main(a, b) {
            node int sum;
            sum = a + b;
        }"#,
    )
    .unwrap();
    let mut c = sim(1);
    let pid = c.register_program(&prog);
    c.inject(0, pid, &[Value::Int(19), Value::Int(23)]).unwrap();
    let report = c.run().unwrap();
    assert_eq!(report.live_leak, 0);
    assert!(report.faults.is_empty());
    assert_eq!(c.node_var(0, &Value::str("init"), "sum"), Some(Value::Int(42)));
}

#[test]
fn create_all_spawns_one_worker_per_daemon() {
    // Each replica marks its daemon's init... actually the new node; it
    // then reports home by writing into the origin via a hop back.
    let prog = compile(
        r#"main() {
            node int here;
            create(ALL);
            here = $address + 1;  /* runs at each created node */
        }"#,
    )
    .unwrap();
    let mut c = sim(4);
    let pid = c.register_program(&prog);
    c.inject(2, pid, &[]).unwrap();
    let report = c.run().unwrap();
    assert_eq!(report.live_leak, 0, "faults: {:?}", report.faults);
    // One new node on every daemon (clique includes self).
    assert_eq!(report.stats.counter("remote_creates"), 4);
    assert_eq!(report.stats.counter("terminated"), 4);
}

#[test]
fn manager_worker_shuttle_with_last() {
    // The Fig. 3 skeleton: workers created on all daemons shuttle back
    // and forth over $last, pulling tasks from the center's node
    // variables — no manager process exists.
    let prog = compile(
        r#"manager_worker() {
            int task, res;
            node int next, limit, done, sum;
            create(ALL);
            hop(ll = $last);
            while ((task = take_task()) != NULL) {
                hop(ll = $last);
                res = task * task;
                hop(ll = $last);
                done = done + 1;
                sum = sum + res;
            }
        }"#,
    )
    .unwrap();
    let mut c = sim(4);
    c.register_native("take_task", |ctx, _args| {
        let next = ctx.node_var("next").as_int().unwrap_or(0);
        let limit = ctx.node_var("limit").as_int().unwrap_or(0);
        if next >= limit {
            return Ok(Value::Null);
        }
        ctx.set_node_var("next", Value::Int(next + 1));
        Ok(Value::Int(next))
    });
    let pid = c.register_program(&prog);
    // Pre-set the task pool on daemon 1's init node, where we inject.
    let mid = c.inject(1, pid, &[]);
    assert!(mid.is_ok());
    // Find daemon 1's init and set the limit before running.
    // (Injection is queued; nothing has executed yet.)
    let d1init = Value::str("init");
    // Set node vars directly through the daemon accessor.
    {
        // `set_node_var` works on directory names; init nodes are per
        // daemon, so use the daemon-level API via node_var/find…
        // For tests we reach through the public daemon handle.
    }
    // Simplest: run with limit stored via another injected setter script.
    let setter = compile(r#"set(n) { node int limit; limit = n; }"#).unwrap();
    let _sid = c.register_program(&setter);
    // The setter must run first; inject it first (FIFO at the daemon).
    let mut c2 = sim(4);
    c2.register_native("take_task", |ctx, _args| {
        let next = ctx.node_var("next").as_int().unwrap_or(0);
        let limit = ctx.node_var("limit").as_int().unwrap_or(0);
        if next >= limit {
            return Ok(Value::Null);
        }
        ctx.set_node_var("next", Value::Int(next + 1));
        Ok(Value::Int(next))
    });
    let sid = c2.register_program(&setter);
    let pid = c2.register_program(&prog);
    c2.inject(1, sid, &[Value::Int(10)]).unwrap();
    c2.inject(1, pid, &[]).unwrap();
    let report = c2.run().unwrap();
    assert!(report.faults.is_empty(), "faults: {:?}", report.faults);
    assert_eq!(report.live_leak, 0);
    assert_eq!(c2.node_var(1, &d1init, "done"), Some(Value::Int(10)));
    // sum of squares 0..9 = 285
    assert_eq!(c2.node_var(1, &d1init, "sum"), Some(Value::Int(285)));
    // All 10 tasks were taken exactly once despite 4 concurrent workers.
    assert_eq!(c2.node_var(1, &d1init, "next"), Some(Value::Int(10)));
}

#[test]
fn grid_hop_along_named_links() {
    // Build a 2x2 Fig.-10-style grid and walk a messenger along a row
    // then up a column.
    let prog = compile(
        r#"main() {
            node int mark;
            hop(ll = "row");          /* 0,0 -> 0,1 (row is a mesh) */
            mark = mark + 1;
            hop(ll = "column"; ldir = +);  /* up the column ring */
            mark = mark + 10;
        }"#,
    )
    .unwrap();
    let mut c = sim(4);
    c.build(&LogicalTopology::grid(2, 4)).unwrap();
    let pid = c.register_program(&prog);
    c.inject_at(&Value::str("0,0"), pid, &[]).unwrap();
    let report = c.run().unwrap();
    assert!(report.faults.is_empty(), "{:?}", report.faults);
    assert_eq!(report.live_leak, 0);
    // Row hop from 0,0 reaches 0,1 (single row neighbor in a 2x2 mesh).
    assert_eq!(c.node_var_by_name(&Value::str("0,1"), "mark"), Some(Value::Int(1)));
    // Column hop with ldir=+ from 0,1 goes to 1,1 ((0-1) mod 2 = 1).
    assert_eq!(c.node_var_by_name(&Value::str("1,1"), "mark"), Some(Value::Int(10)));
}

#[test]
fn hop_replicates_to_all_matches() {
    let prog = compile(
        r#"main() {
            node int hits;
            hop(ll = "spoke");
            hits = hits + 1;
        }"#,
    )
    .unwrap();
    let mut c = sim(3);
    c.build(&LogicalTopology::star(5, 3)).unwrap();
    let pid = c.register_program(&prog);
    c.inject_at(&Value::str("hub"), pid, &[]).unwrap();
    let report = c.run().unwrap();
    assert_eq!(report.live_leak, 0);
    for k in 0..5 {
        assert_eq!(
            c.node_var_by_name(&Value::str(format!("leaf{k}")), "hits"),
            Some(Value::Int(1)),
            "leaf{k}"
        );
    }
    assert_eq!(report.stats.counter("terminated"), 5);
}

#[test]
fn zero_match_hop_kills_messenger() {
    let prog = compile(r#"main() { hop(ll = "nonexistent"); }"#).unwrap();
    let mut c = sim(2);
    let pid = c.register_program(&prog);
    c.inject(0, pid, &[]).unwrap();
    let report = c.run().unwrap();
    assert_eq!(report.live_leak, 0);
    assert_eq!(report.stats.counter("hop_no_match"), 1);
    assert_eq!(report.stats.counter("terminated"), 0);
}

#[test]
fn virtual_hop_jumps_by_name() {
    let prog = compile(
        r#"main() {
            node int visited;
            hop(ll = virtual; ln = "faraway");
            visited = 1;
        }"#,
    )
    .unwrap();
    for platform in BOTH {
        on!(platform, 4, |c| {
            let mut topo = LogicalTopology::new();
            topo.node(Value::str("faraway"), msgr_core::DaemonId(3));
            c.build(&topo).unwrap();
            let pid = c.register_program(&prog);
            c.inject(0, pid, &[]).unwrap();
            let report = c.run().unwrap();
            assert!(report.faults.is_empty(), "{platform:?}: {:?}", report.faults);
            let visited = c.node_var_by_name(&Value::str("faraway"), "visited");
            assert_eq!(visited, Some(Value::Int(1)), "{platform:?}");
            assert_eq!(report.stats.counter("virtual_hops"), 1, "{platform:?}");
            report
        });
    }
}

#[test]
fn delete_tears_down_links_and_singletons() {
    let prog = compile(
        r#"main() {
            node int x;
            create(ln = "out"; ll = "cord"; dn = 1);
            /* now at node "out" on daemon 1 */
            x = 7;
            delete(ll = "cord");   /* back at init; cord destroyed */
            x = 9;
        }"#,
    )
    .unwrap();
    for platform in BOTH {
        on!(platform, 2, |c| {
            let pid = c.register_program(&prog);
            c.inject(0, pid, &[]).unwrap();
            let report = c.run().unwrap();
            assert!(report.faults.is_empty(), "{platform:?}: {:?}", report.faults);
            assert_eq!(c.node_var(0, &Value::str("init"), "x"), Some(Value::Int(9)));
            // "out" became a singleton and was deleted, and its name
            // left the directory with it.
            assert_eq!(report.stats.counter("nodes_deleted"), 1, "{platform:?}");
            assert!(c.node_var_by_name(&Value::str("out"), "x").is_none(), "{platform:?}");
            let gone = c.inject_at(&Value::str("out"), pid, &[]);
            assert_eq!(gone, Err(ClusterError::NotFound("node out".to_string())), "{platform:?}");
            report
        });
    }
}

#[test]
fn virtual_time_alternation_conservative() {
    // Two messengers at one node interleave strictly by virtual time:
    // A at ticks 0,1,2 appends 'a'; B at 0.5,1.5,2.5 appends 'b'.
    let prog = compile(
        r#"main(who, offset) {
            int k;
            node string trace;
            for (k = 0; k < 3; k = k + 1) {
                M_sched_time_abs(k + offset);
                trace = trace + who;
            }
        }"#,
    )
    .unwrap();
    let mut c = sim(2);
    let pid = c.register_program(&prog);
    c.inject(0, pid, &[Value::str("a"), Value::Float(0.0)]).unwrap();
    c.inject(0, pid, &[Value::str("b"), Value::Float(0.5)]).unwrap();
    let report = c.run().unwrap();
    assert!(report.faults.is_empty(), "{:?}", report.faults);
    assert_eq!(report.live_leak, 0);
    assert_eq!(c.node_var(0, &Value::str("init"), "trace"), Some(Value::str("ababab")));
    assert!(report.stats.counter("gvt_rounds") > 0);
}

#[test]
fn virtual_time_across_daemons() {
    // distribute/rotate-style alternation across two daemons sharing a
    // logical ring: each messenger stamps the global order counter.
    let prog = compile(
        r#"main(slot) {
            node int order_ok, counter;
            M_sched_time_abs(slot);
            counter = counter + 1;
            if (counter == slot + 1) order_ok = order_ok + 1;
        }"#,
    )
    .unwrap();
    let mut c = sim(1);
    let pid = c.register_program(&prog);
    for slot in 0..6 {
        c.inject(0, pid, &[Value::Int(slot)]).unwrap();
    }
    let report = c.run().unwrap();
    assert!(report.faults.is_empty());
    assert_eq!(
        c.node_var(0, &Value::str("init"), "order_ok"),
        Some(Value::Int(6)),
        "every messenger must observe the counter at its own slot"
    );
}

#[test]
fn optimistic_matches_conservative() {
    // A virtual-time workload with cross-daemon hops; optimistic (Time
    // Warp) must produce the same final node state as conservative.
    let src = r#"main(k, rounds) {
            int i;
            node int acc;
            for (i = 0; i < rounds; i = i + 1) {
                M_sched_time_dlt(1.0);
                acc = acc + k + i;
                hop(ll = "ring");
            }
        }"#;
    let prog = compile(src).unwrap();

    let run_with = |mode: VtMode| {
        let mut cfg = ClusterConfig::new(2);
        cfg.net = NetKind::Ideal;
        cfg.vt_mode = mode;
        let mut c = SimCluster::new(cfg);
        let mut topo = LogicalTopology::new();
        topo.node(Value::str("r0"), msgr_core::DaemonId(0));
        topo.node(Value::str("r1"), msgr_core::DaemonId(1));
        topo.link(Value::str("r0"), Value::str("r1"), Value::str("ring"), msgr_vm::Dir::Any);
        c.build(&topo).unwrap();
        let pid = c.register_program(&prog);
        c.inject_at(&Value::str("r0"), pid, &[Value::Int(1), Value::Int(4)]).unwrap();
        c.inject_at(&Value::str("r1"), pid, &[Value::Int(100), Value::Int(4)]).unwrap();
        let report = c.run().unwrap();
        assert!(report.faults.is_empty(), "{mode:?}: {:?}", report.faults);
        (c.node_var_by_name(&Value::str("r0"), "acc"), c.node_var_by_name(&Value::str("r1"), "acc"))
    };
    let cons = run_with(VtMode::Conservative);
    let opt = run_with(VtMode::Optimistic);
    assert_eq!(cons, opt);
    assert!(cons.0.is_some());
}

#[test]
fn carry_code_inflates_migrations() {
    let prog =
        compile(r#"main() { int i; for (i = 0; i < 4; i = i + 1) hop(ll = "spoke"); }"#).unwrap();
    let run_with = |carry: bool| {
        let mut cfg = ClusterConfig::new(2);
        cfg.net = NetKind::Ideal;
        cfg.carry_code = carry;
        let mut c = SimCluster::new(cfg);
        c.build(&LogicalTopology::star(1, 2)).unwrap();
        let pid = c.register_program(&prog);
        c.inject_at(&Value::str("hub"), pid, &[]).unwrap();
        let r = c.run().unwrap();
        r.stats.counter("migration_bytes")
    };
    let lean = run_with(false);
    let fat = run_with(true);
    assert!(fat > lean * 2, "carry-code should dominate: {fat} vs {lean}");
}

#[test]
fn stalled_detection_on_livelock() {
    // A messenger bouncing between two nodes forever.
    let prog = compile(r#"main() { while (1) hop(ll = "spoke"); }"#).unwrap();
    let mut cfg = ClusterConfig::new(2);
    cfg.net = NetKind::Ideal;
    cfg.max_events = 20_000;
    let mut c = SimCluster::new(cfg);
    c.build(&LogicalTopology::star(1, 2)).unwrap();
    let pid = c.register_program(&prog);
    c.inject_at(&Value::str("hub"), pid, &[]).unwrap();
    match c.run() {
        Err(ClusterError::Stalled { events }) => assert!(events >= 20_000),
        other => panic!("expected stall, got {other:?}"),
    }
}

#[test]
fn faulting_messenger_reported_not_fatal() {
    let prog = compile(r#"main() { int x; x = 1 / 0; }"#).unwrap();
    let mut c = sim(1);
    let pid = c.register_program(&prog);
    c.inject(0, pid, &[]).unwrap();
    let report = c.run().unwrap();
    assert_eq!(report.live_leak, 0);
    assert_eq!(report.faults.len(), 1);
    assert!(report.faults[0].1.contains("division by zero"));
}

#[test]
fn unknown_program_rejected() {
    let mut c = sim(1);
    let err = c.inject(0, msgr_vm::ProgramId(0xDEAD), &[]).unwrap_err();
    assert_eq!(err, ClusterError::UnknownProgram);
}

#[test]
fn bad_arity_injection_rejected() {
    let prog = compile("main(a) { return a; }").unwrap();
    let mut c = sim(1);
    let pid = c.register_program(&prog);
    let err = c.inject(0, pid, &[]).unwrap_err();
    assert!(matches!(err, ClusterError::BadInjection(_)));
}

// ---- threaded platform ----------------------------------------------------

#[test]
fn threads_basic_node_update() {
    let prog = compile(
        r#"main(n) {
            node int total;
            total = total + n;
        }"#,
    )
    .unwrap();
    let mut c = ThreadCluster::new(ClusterConfig::new(2)).unwrap();
    let pid = c.register_program(&prog);
    c.inject(0, pid, &[Value::Int(5)]).unwrap();
    c.inject(0, pid, &[Value::Int(7)]).unwrap();
    let report = c.run().unwrap();
    assert!(report.faults.is_empty());
    assert_eq!(c.node_var(0, &Value::str("init"), "total"), Some(Value::Int(12)));
    assert!(report.wall_seconds < 60.0);
}

#[test]
fn threads_create_all_and_shuttle() {
    let prog = compile(
        r#"main() {
            int task;
            node int next, done;
            create(ALL);
            hop(ll = $last);
            while ((task = grab()) != NULL) {
                hop(ll = $last);
                hop(ll = $last);
                done = done + 1;
            }
        }"#,
    )
    .unwrap();
    let mut c = ThreadCluster::new(ClusterConfig::new(4)).unwrap();
    c.register_native("grab", |ctx, _| {
        let next = ctx.node_var("next").as_int().unwrap_or(0);
        if next >= 20 {
            return Ok(Value::Null);
        }
        ctx.set_node_var("next", Value::Int(next + 1));
        Ok(Value::Int(next))
    });
    let pid = c.register_program(&prog);
    c.inject(0, pid, &[]).unwrap();
    let report = c.run().unwrap();
    assert!(report.faults.is_empty(), "{:?}", report.faults);
    assert_eq!(c.node_var(0, &Value::str("init"), "done"), Some(Value::Int(20)));
    assert_eq!(c.node_var(0, &Value::str("init"), "next"), Some(Value::Int(20)));
}

#[test]
fn threads_virtual_time_alternation() {
    let prog = compile(
        r#"main(who, offset) {
            int k;
            node string trace;
            for (k = 0; k < 3; k = k + 1) {
                M_sched_time_abs(k + offset);
                trace = trace + who;
            }
        }"#,
    )
    .unwrap();
    let mut cfg = ClusterConfig::new(2);
    cfg.gvt_interval = 1_000_000; // 1 ms wall-clock ticks
    let mut c = ThreadCluster::new(cfg).unwrap();
    let pid = c.register_program(&prog);
    c.inject(1, pid, &[Value::str("a"), Value::Float(0.0)]).unwrap();
    c.inject(1, pid, &[Value::str("b"), Value::Float(0.5)]).unwrap();
    let report = c.run().unwrap();
    assert!(report.faults.is_empty(), "{:?}", report.faults);
    assert_eq!(c.node_var(1, &Value::str("init"), "trace"), Some(Value::str("ababab")));
}

#[test]
fn threads_ring_with_local_moves_visits_exactly_once() {
    // 16 walkers on a 16-node ring laid out in contiguous per-daemon
    // blocks, so 3 of every 4 hops stay on one daemon and take the
    // `local_move` handover instead of the codec.
    let prog = compile(
        r#"walk(passes) {
            int i = 0;
            node int visits;
            visits = visits + 1;
            while (i < passes) {
                hop(ll = "ring"; ldir = +);
                visits = visits + 1;
                i = i + 1;
            }
        }"#,
    )
    .unwrap();
    let (daemons, nodes, walkers, passes) = (4usize, 16usize, 16usize, 12i64);
    let mut cfg = ClusterConfig::new(daemons);
    cfg.local_move = true;
    let mut c = ThreadCluster::new(cfg).unwrap();
    let mut topo = LogicalTopology::new();
    for i in 0..nodes {
        topo.node(Value::str(format!("p{i}")), DaemonId((i / (nodes / daemons)) as u16));
    }
    for i in 0..nodes {
        topo.link(
            Value::str(format!("p{i}")),
            Value::str(format!("p{}", (i + 1) % nodes)),
            Value::str("ring"),
            Dir::Forward,
        );
    }
    c.build(&topo).unwrap();
    let pid = c.register_program(&prog);
    for m in 0..walkers {
        c.inject_at(&Value::str(format!("p{m}")), pid, &[Value::Int(passes)]).unwrap();
    }
    let report = c.run().unwrap();
    assert!(report.faults.is_empty(), "{:?}", report.faults);
    let visits: i64 = (0..nodes)
        .filter_map(|i| c.node_var_by_name(&Value::str(format!("p{i}")), "visits"))
        .filter_map(|v| v.as_int().ok())
        .sum();
    assert_eq!(visits, walkers as i64 * (passes + 1));
    assert_eq!(report.stats.counter("terminated"), walkers as u64);
}

#[test]
fn threads_scatter_reaches_every_spoke_exactly_once() {
    // A hub on daemon 0 replicating to 8 spokes that all live on daemon
    // 1: every burst is 8 frames to one peer, and each must land once.
    let prog = compile(
        r#"scatter() {
            node int seen;
            hop(ll = "out"; ldir = +);
            seen = seen + 1;
        }"#,
    )
    .unwrap();
    let (spokes, scatters) = (8usize, 8usize);
    let mut c = ThreadCluster::new(ClusterConfig::new(2)).unwrap();
    let mut topo = LogicalTopology::new();
    topo.node(Value::str("hub"), DaemonId(0));
    for i in 0..spokes {
        topo.node(Value::str(format!("s{i}")), DaemonId(1));
        topo.link(Value::str("hub"), Value::str(format!("s{i}")), Value::str("out"), Dir::Forward);
    }
    c.build(&topo).unwrap();
    let pid = c.register_program(&prog);
    for _ in 0..scatters {
        c.inject_at(&Value::str("hub"), pid, &[]).unwrap();
    }
    let report = c.run().unwrap();
    assert!(report.faults.is_empty(), "{:?}", report.faults);
    let seen: i64 = (0..spokes)
        .filter_map(|i| c.node_var_by_name(&Value::str(format!("s{i}")), "seen"))
        .filter_map(|v| v.as_int().ok())
        .sum();
    assert_eq!(seen, (scatters * spokes) as i64);
}

#[test]
fn threads_reject_optimistic() {
    let mut cfg = ClusterConfig::new(2);
    cfg.vt_mode = VtMode::Optimistic;
    assert!(matches!(ThreadCluster::new(cfg), Err(ClusterError::Config(_))));
}

#[test]
fn vt_zero_wake_runs_immediately() {
    // M_sched_time_abs(0) at vtime 0 must not deadlock even though GVT
    // starts at 0.
    let prog = compile(
        r#"main() {
            node int ran;
            M_sched_time_abs(0.0);
            ran = 1;
        }"#,
    )
    .unwrap();
    let mut c = sim(2);
    let pid = c.register_program(&prog);
    c.inject(0, pid, &[]).unwrap();
    let report = c.run().unwrap();
    assert!(report.faults.is_empty());
    assert_eq!(c.node_var(0, &Value::str("init"), "ran"), Some(Value::Int(1)));
    let _ = Vt::ZERO;
}

#[test]
fn create_respects_daemon_topology_patterns() {
    // A ring daemon network with named links: create(dl = "ring",
    // ddir = +) must place the node on the clockwise neighbor only.
    let prog = compile(
        r#"main() {
            node int made;
            create(ln = "next"; ll = "cord"; dl = "ring"; ddir = +);
            made = $address + 100;   /* runs at the created node */
        }"#,
    )
    .unwrap();
    let mut cfg = ClusterConfig::new(4);
    cfg.net = NetKind::Ideal;
    let mut c =
        msgr_core::SimCluster::with_daemon_topology(cfg, msgr_core::DaemonTopology::ring(4));
    let pid = c.register_program(&prog);
    c.inject(1, pid, &[]).unwrap();
    let report = c.run().unwrap();
    assert!(report.faults.is_empty(), "{:?}", report.faults);
    // Daemon 1's clockwise neighbor is daemon 2.
    assert_eq!(c.node_var_by_name(&Value::str("next"), "made"), Some(Value::Int(102)));
}

#[test]
fn create_with_dn_places_on_named_daemon() {
    let prog = compile(
        r#"main(target) {
            node int made;
            create(ln = "spot"; dn = target);
            made = $address;
        }"#,
    )
    .unwrap();
    let mut c = sim(6);
    let pid = c.register_program(&prog);
    c.inject(0, pid, &[Value::Int(4)]).unwrap();
    let report = c.run().unwrap();
    assert!(report.faults.is_empty(), "{:?}", report.faults);
    assert_eq!(c.node_var_by_name(&Value::str("spot"), "made"), Some(Value::Int(4)));
}

#[test]
fn threaded_stress_many_messengers() {
    // 64 messengers bouncing across 8 daemons, all terminating cleanly.
    let prog = compile(
        r#"main(rounds) {
            int i;
            node int landings;
            create(ALL);
            for (i = 0; i < rounds; i = i + 1) {
                landings = landings + 1;
                hop(ll = $last);
            }
        }"#,
    )
    .unwrap();
    let mut c = ThreadCluster::new(ClusterConfig::new(8)).unwrap();
    let pid = c.register_program(&prog);
    for _ in 0..8 {
        c.inject(0, pid, &[Value::Int(8)]).unwrap();
    }
    let report = c.run().unwrap();
    assert!(report.faults.is_empty(), "{:?}", report.faults);
    // 8 injections × 8 replicas each → 64 workers... each replica makes
    // `rounds` hops; total landings = replicas × rounds (first landing
    // at creation, then ping-pong).
    assert_eq!(report.stats.counter("terminated"), 64);
}

/// A walker that makes `passes` hops forward along "ring" links, counting
/// its landings in each node's `visits`.
const RING_WALKER: &str = r#"walk(passes) {
    int i;
    node int visits;
    for (i = 0; i < passes; i = i + 1) {
        hop(ll = "ring"; ldir = +);
        visits = visits + 1;
    }
}"#;

/// Node `a` on daemon 0 and node `b` on daemon 1, joined into a 2-ring.
fn two_ring() -> LogicalTopology {
    let mut topo = LogicalTopology::new();
    topo.node(Value::str("a"), DaemonId(0));
    topo.node(Value::str("b"), DaemonId(1));
    topo.link(Value::str("a"), Value::str("b"), Value::str("ring"), Dir::Forward);
    topo.link(Value::str("b"), Value::str("a"), Value::str("ring"), Dir::Forward);
    topo
}

/// A 2-daemon thread cluster over [`two_ring`] with [`RING_WALKER`]
/// registered: every hop crosses threads and finds the receiver idle.
fn bounce_pair() -> (ThreadCluster, ProgramId) {
    let mut c = ThreadCluster::new(ClusterConfig::new(2)).unwrap();
    c.build(&two_ring()).unwrap();
    let pid = c.register_program(&compile(RING_WALKER).unwrap());
    (c, pid)
}

// The next three are hang detectors for the driver's park/unpark
// handshake: a lost wake-up shows as a test that never returns (the
// stall deadline is 5 minutes), so none of them asserts on wall-clock.

#[test]
fn threads_short_runs_never_lose_the_last_death() {
    // The handshake most likely to lose an unpark: the run is over within
    // microseconds of the driver deciding to park.
    for round in 0..300 {
        let hops = 1 + round % 7;
        let (mut c, pid) = bounce_pair();
        c.inject_at(&Value::str("a"), pid, &[Value::Int(hops)]).unwrap();
        let report = c.run().unwrap();
        assert!(report.faults.is_empty(), "round {round}: {:?}", report.faults);
        assert_eq!(report.stats.counter("hops"), hops as u64, "round {round}");
        assert_eq!(report.stats.counter("terminated"), 1, "round {round}");
    }
}

#[test]
fn threads_run_with_nothing_injected_returns() {
    let (mut c, _) = bounce_pair();
    let report = c.run().unwrap();
    assert!(report.faults.is_empty());
    assert_eq!(report.stats.counter("terminated"), 0);
}

#[test]
fn threads_cluster_runs_again_after_a_fresh_injection() {
    // Daemon counters are cumulative across runs of one cluster.
    let (mut c, pid) = bounce_pair();
    c.inject_at(&Value::str("a"), pid, &[Value::Int(5)]).unwrap();
    let first = c.run().unwrap();
    assert_eq!((first.stats.counter("hops"), first.stats.counter("terminated")), (5, 1));
    c.inject_at(&Value::str("b"), pid, &[Value::Int(4)]).unwrap();
    let second = c.run().unwrap();
    assert!(second.faults.is_empty(), "{:?}", second.faults);
    assert_eq!((second.stats.counter("hops"), second.stats.counter("terminated")), (9, 2));
}

#[test]
fn threads_panicking_native_unwinds_run_at_once() {
    // A daemon thread that unwinds strands its messenger's credit: `live`
    // never reaches zero. `run` must re-raise the panic rather than sit
    // out the 5-minute stall deadline.
    let prog = compile(
        r#"main() {
            hop(ll = "ring"; ldir = +);
            boom();
        }"#,
    )
    .unwrap();
    let (mut c, _) = bounce_pair();
    c.register_native("boom", |_, _| panic!("native blew up"));
    let pid = c.register_program(&prog);
    c.inject_at(&Value::str("a"), pid, &[]).unwrap();
    let started = std::time::Instant::now();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.run()));
    let payload = outcome.expect_err("the daemon's panic must reach the caller of run()");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"native blew up"));
    assert!(started.elapsed() < std::time::Duration::from_secs(5), "{:?}", started.elapsed());
}

#[test]
fn sim_recovery_armed_cluster_runs_twice() {
    // The periodic checkpoint is armed relative to `now`, so a second
    // `run()` — the clock already past the first checkpoint period — must
    // not schedule into the past.
    let mut cfg = ClusterConfig::new(3);
    cfg.faults = FaultPlan { crashes: vec![CrashEvent::kill(2, MILLI)], ..FaultPlan::none() };
    let mut c = SimCluster::new(cfg);
    c.build(&two_ring()).unwrap();
    let pid = c.register_program(&compile(RING_WALKER).unwrap());
    c.inject_at(&Value::str("a"), pid, &[Value::Int(200)]).unwrap();
    let first = c.run().unwrap();
    assert!(first.faults.is_empty(), "{:?}", first.faults);
    assert!(first.sim_seconds > 0.040, "first run must outlast a checkpoint period");
    c.inject_at(&Value::str("a"), pid, &[Value::Int(2)]).unwrap();
    let second = c.run().unwrap();
    assert!(second.faults.is_empty(), "{:?}", second.faults);
    assert_eq!(second.live_leak, 0);
    assert_eq!(c.node_var_by_name(&Value::str("a"), "visits"), Some(Value::Int(101)));
}

#[test]
fn runtime_injection_at_future_time() {
    // The paper allows injecting new messengers at runtime; a late
    // messenger must observe the state its predecessors left behind.
    let prog = compile(
        r#"stamp(tag) {
            node string log;
            log = log + tag;
        }"#,
    )
    .unwrap();
    let mut c = sim(2);
    let mut topo = LogicalTopology::new();
    topo.node(Value::str("board"), msgr_core::DaemonId(1));
    c.build(&topo).unwrap();
    let pid = c.register_program(&prog);
    c.inject_at(&Value::str("board"), pid, &[Value::str("a")]).unwrap();
    c.inject_at_time(&Value::str("board"), pid, &[Value::str("c")], 2.0).unwrap();
    c.inject_at_time(&Value::str("board"), pid, &[Value::str("b")], 1.0).unwrap();
    let report = c.run().unwrap();
    assert!(report.faults.is_empty(), "{:?}", report.faults);
    assert_eq!(report.live_leak, 0);
    assert!(report.sim_seconds >= 2.0, "clock must reach the last injection");
    assert_eq!(
        c.node_var_by_name(&Value::str("board"), "log"),
        Some(Value::str("abc")),
        "injections must run in scheduled order"
    );
}

#[test]
fn logical_network_persists_across_messenger_generations() {
    // §1: "the logical network is persistent. Unless explicitly
    // destroyed, it will continue to exist after the Messengers have
    // moved on or terminated." A builder messenger creates the network;
    // a *later* generation (injected in a later run, after the builder
    // has died) finds it by name.
    let builder = compile(
        r#"build() {
            create(ln = "annex"; ll = "door"; dn = 1);
            /* builder dies here, at the annex */
        }"#,
    )
    .unwrap();
    let visitor = compile(
        r#"visit() {
            node int visits;
            hop(ll = virtual; ln = "annex");
            visits = visits + 1;
        }"#,
    )
    .unwrap();
    for platform in BOTH {
        on!(platform, 2, |c| {
            let bid = c.register_program(&builder);
            let vid = c.register_program(&visitor);
            c.inject(0, bid, &[]).unwrap();
            let run1 = c.run().unwrap();
            assert!(run1.faults.is_empty(), "{platform:?}: {:?}", run1.faults);

            // The builder is long dead; its network remains.
            c.inject(0, vid, &[]).unwrap();
            c.inject(1, vid, &[]).unwrap();
            let run2 = c.run().unwrap();
            assert!(run2.faults.is_empty(), "{platform:?}: {:?}", run2.faults);
            let visits = c.node_var_by_name(&Value::str("annex"), "visits");
            assert_eq!(visits, Some(Value::Int(2)), "{platform:?}");
            run2
        });
    }
}

#[test]
fn a_missing_daemon_is_not_found_on_both_platforms() {
    let prog = compile("main() { node int x; x = 1; }").unwrap();
    for platform in BOTH {
        on!(platform, 4, |c| {
            let pid = c.register_program(&prog);
            let err = c.inject(9, pid, &[]).unwrap_err();
            assert_eq!(err, ClusterError::NotFound("daemon 9".to_string()), "{platform:?}");
            assert_eq!(c.node_var(9, &Value::str("init"), "x"), None, "{platform:?}");
            // The refused injection counted nothing: the run is empty.
            let report = c.run().unwrap();
            assert_eq!(report.stats.counter("terminated"), 0, "{platform:?}");
            report
        });
    }
}

#[test]
fn runaway_messenger_is_killed_with_fuel_fault() {
    let prog = compile(r#"main() { while (1) { } }"#).unwrap();
    let mut cfg = ClusterConfig::new(1);
    cfg.net = NetKind::Ideal;
    cfg.segment_fuel = 50_000;
    let mut c = SimCluster::new(cfg);
    let pid = c.register_program(&prog);
    c.inject(0, pid, &[]).unwrap();
    let report = c.run().unwrap();
    assert_eq!(report.live_leak, 0);
    assert_eq!(report.faults.len(), 1);
    assert!(report.faults[0].1.contains("fuel"), "{:?}", report.faults);
}

#[test]
fn negative_virtual_time_delta_faults() {
    let prog = compile(r#"main() { M_sched_time_dlt(0.0 - 1.0); }"#).unwrap();
    let mut c = sim(1);
    let pid = c.register_program(&prog);
    c.inject(0, pid, &[]).unwrap();
    let report = c.run().unwrap();
    assert_eq!(report.faults.len(), 1);
    assert!(report.faults[0].1.contains("negative"), "{:?}", report.faults);
    assert_eq!(report.live_leak, 0);
}

#[test]
fn backward_hop_traverses_against_orientation() {
    let prog = compile(
        r#"main() {
            node int here;
            hop(ll = "oneway"; ldir = -);   /* against the arrow */
            here = $address + 1;
        }"#,
    )
    .unwrap();
    let mut c = sim(2);
    let mut topo = LogicalTopology::new();
    topo.node(Value::str("src"), msgr_core::DaemonId(0));
    topo.node(Value::str("dst"), msgr_core::DaemonId(1));
    // Arrow points src -> dst; we inject at dst and walk backward to src.
    topo.link(Value::str("src"), Value::str("dst"), Value::str("oneway"), msgr_vm::Dir::Forward);
    c.build(&topo).unwrap();
    let pid = c.register_program(&prog);
    c.inject_at(&Value::str("dst"), pid, &[]).unwrap();
    let report = c.run().unwrap();
    assert!(report.faults.is_empty());
    assert_eq!(c.node_var_by_name(&Value::str("src"), "here"), Some(Value::Int(1)));
    // Forward from dst must not match (zero-match kills).
    let prog2 = compile(r#"main() { hop(ll = "oneway"; ldir = +); }"#).unwrap();
    let pid2 = c.register_program(&prog2);
    c.inject_at(&Value::str("dst"), pid2, &[]).unwrap();
    let report = c.run().unwrap();
    assert_eq!(report.stats.counter("hop_no_match"), 1);
}

#[test]
fn unnamed_link_pattern_matches_only_unnamed() {
    let prog = compile(
        r#"main() {
            node int got;
            hop(ll = ~);     /* unnamed links only */
            got = 1;
        }"#,
    )
    .unwrap();
    let mut c = sim(3);
    let mut topo = LogicalTopology::new();
    topo.node(Value::str("hub2"), msgr_core::DaemonId(0));
    topo.node(Value::str("named"), msgr_core::DaemonId(1));
    topo.node(Value::str("anon"), msgr_core::DaemonId(2));
    topo.link(Value::str("hub2"), Value::str("named"), Value::str("wire"), msgr_vm::Dir::Any);
    topo.link(Value::str("hub2"), Value::str("anon"), Value::Null, msgr_vm::Dir::Any);
    c.build(&topo).unwrap();
    let pid = c.register_program(&prog);
    c.inject_at(&Value::str("hub2"), pid, &[]).unwrap();
    let report = c.run().unwrap();
    assert!(report.faults.is_empty());
    assert_eq!(c.node_var_by_name(&Value::str("anon"), "got"), Some(Value::Int(1)));
    assert_eq!(c.node_var_by_name(&Value::str("named"), "got"), Some(Value::Null));
}

#[test]
fn node_netvar_reports_current_node_name() {
    let prog = compile(
        r#"main() {
            node string whoami;
            whoami = "" + $node;
            hop(ll = "spoke");
            whoami = "" + $node;
        }"#,
    )
    .unwrap();
    let mut c = sim(2);
    c.build(&LogicalTopology::star(1, 2)).unwrap();
    let pid = c.register_program(&prog);
    c.inject_at(&Value::str("hub"), pid, &[]).unwrap();
    let report = c.run().unwrap();
    assert!(report.faults.is_empty(), "{:?}", report.faults);
    assert_eq!(c.node_var_by_name(&Value::str("hub"), "whoami"), Some(Value::str("hub")));
    assert_eq!(c.node_var_by_name(&Value::str("leaf0"), "whoami"), Some(Value::str("leaf0")));
}

#[test]
fn arrays_travel_with_messengers() {
    // A messenger fills an array, hops with it, and unloads it remotely.
    let prog = compile(
        r#"main(n) {
            int a[n], i;
            node int total;
            for (i = 0; i < n; i = i + 1) a[i] = i + 1;
            hop(ll = "spoke");
            for (i = 0; i < n; i = i + 1) total = total + a[i];
        }"#,
    )
    .unwrap();
    let mut c = sim(2);
    c.build(&LogicalTopology::star(1, 2)).unwrap();
    let pid = c.register_program(&prog);
    c.inject_at(&Value::str("hub"), pid, &[Value::Int(10)]).unwrap();
    let report = c.run().unwrap();
    assert!(report.faults.is_empty(), "{:?}", report.faults);
    assert_eq!(c.node_var_by_name(&Value::str("leaf0"), "total"), Some(Value::Int(55)));
}

#[test]
fn delete_from_hub_does_not_strand_the_traveler() {
    // The deleting messenger tears down the only link while traveling
    // over it: it must still arrive, and the now-singleton destination
    // survives while occupied.
    let prog = compile(
        r#"main() {
            node int landed;
            create(ln = "island"; ll = "bridge"; dn = 1);
            hop(ll = $last);          /* back to init */
            delete(ll = "bridge");    /* burn the bridge while crossing it */
            landed = 1;
        }"#,
    )
    .unwrap();
    let mut c = sim(2);
    let pid = c.register_program(&prog);
    c.inject(0, pid, &[]).unwrap();
    let report = c.run().unwrap();
    assert!(report.faults.is_empty(), "{:?}", report.faults);
    assert_eq!(report.live_leak, 0);
    assert_eq!(report.stats.counter("dead_letters"), 0, "traveler must not be lost");
    assert_eq!(c.node_var_by_name(&Value::str("island"), "landed"), Some(Value::Int(1)));
}

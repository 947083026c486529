//! Property suite for `Wire::Batch` and the execution lanes.
//!
//! The batching optimization only counts if it is provably invisible:
//! a batch must round-trip the codec under arbitrary frame mixes, the
//! codec must refuse every nesting a buggy coalescer could produce
//! (a Batch never contains Data/Ack/Batch), exactly-once delivery must
//! survive seeded drop/dup/reorder with batching enabled, and the lane
//! assignment must be a pure function of gid + seed so `sim` stays
//! deterministic at any lane count.
//!
//! Every property runs 256 generated cases through `msgr-check`, so a
//! failing case prints a `MSGR_CHECK_SEED=<n>` line and replays (and
//! shrinks) deterministically. `MSGR_FAULT_SEED=<n>` (set by
//! `scripts/ci.sh`'s chaos step) is XORed into every cluster seed so CI
//! sweeps fresh loss schedules without touching the source.
//!
//! ## Mutation check
//!
//! `broken_retransmit_loses_whole_batches` proves the suite has teeth
//! against the new failure mode batching introduces: one abandoned
//! envelope now loses *several* messengers. It cripples the retransmit
//! layer and asserts the exactly-once property fails on the scatter
//! workload — and that the give-up path faults every messenger in the
//! lost batch instead of silently leaking all but one.

use msgr_check::{
    check_with, codec_corruption, prop_assert, prop_assert_eq, run_check, Config, Source,
};
use msgr_core::topology::LogicalTopology;
use msgr_core::wire::{decode_frame, encode_frame, CreateNode, Migration, Wire};
use msgr_core::{lane_of, BatchPolicy, ClusterConfig, DaemonId, NodeRef, SimCluster};
use msgr_gvt::CtrlMsg;
use msgr_sim::{FaultPlan, MILLI};
use msgr_vm::{Bytes, Dir, LinkInstance, MessengerId, Value, Vt};

// ---- generators (mirroring wire_props.rs) ----

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
    match s.draw(3) {
        0 => CtrlMsg::Cut { round: s.any_u64() },
        1 => CtrlMsg::Poll { round: s.any_u64() },
        _ => CtrlMsg::Advance { gvt: arb_vt(s) },
    }
}

/// Frames a coalescer is allowed to put inside a batch — plus the GVT
/// control frames the codec tolerates there (anything but
/// Data/Ack/Batch).
fn arb_inner_frame(s: &mut Source) -> Wire {
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

fn arb_batch(s: &mut Source) -> Wire {
    Wire::Batch(s.vec_with(2..17, arb_inner_frame))
}

fn chaos_cases() -> Config {
    Config { cases: 256, ..Config::default() }
}

fn fault_seed() -> u64 {
    std::env::var("MSGR_FAULT_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
}

// ---- codec properties ----

#[test]
fn batch_codec_round_trips() {
    check_with(chaos_cases(), "batch_codec_round_trips", |s| {
        let w = if s.any_bool() {
            arb_batch(s)
        } else {
            // A batch sealed inside one transport envelope — the form
            // the reliable transport actually retransmits and acks.
            Wire::Data {
                src: DaemonId(s.any_u16()),
                chan: DaemonId(s.any_u16()),
                seq: s.any_u64(),
                frame: Box::new(arb_batch(s)),
            }
        };
        let back = decode_frame(encode_frame(&w)).map_err(|e| e.to_string())?;
        prop_assert_eq!(back, w);
        Ok(())
    });
}

#[test]
fn batch_nesting_is_refused() {
    // Every shape a buggy coalescer could emit must die in the decoder:
    // Batch-in-Batch, Data-in-Batch, Ack-in-Batch, and batches with
    // fewer than two frames (which should have stayed plain sends).
    check_with(chaos_cases(), "batch_nesting_is_refused", |s| {
        let contraband = match s.draw(4) {
            0 => arb_batch(s),
            1 => Wire::Data {
                src: DaemonId(s.any_u16()),
                chan: DaemonId(s.any_u16()),
                seq: s.any_u64(),
                frame: Box::new(arb_inner_frame(s)),
            },
            2 => Wire::Ack {
                src: DaemonId(s.any_u16()),
                chan: DaemonId(s.any_u16()),
                cum: s.any_u64(),
                seq: s.any_u64(),
            },
            _ => {
                // Undersized batch (0 or 1 frames) of legal inners.
                let w = Wire::Batch(s.vec_with(0..2, arb_inner_frame));
                prop_assert!(
                    decode_frame(encode_frame(&w)).is_err(),
                    "undersized batch decoded: {w:?}"
                );
                return Ok(());
            }
        };
        let mut frames = s.vec_with(2..9, arb_inner_frame);
        let at = s.usize_in(0..frames.len() + 1);
        frames.insert(at, contraband);
        let w = Wire::Batch(frames);
        prop_assert!(decode_frame(encode_frame(&w)).is_err(), "nested batch decoded: {w:?}");
        // Nesting refusal must hold one envelope deeper too.
        let sealed = Wire::Data { src: DaemonId(0), chan: DaemonId(1), seq: 7, frame: Box::new(w) };
        prop_assert!(decode_frame(encode_frame(&sealed)).is_err(), "sealed nested batch decoded");
        Ok(())
    });
}

#[test]
fn batch_corruption_never_silently_round_trips() {
    // Truncate an encoded batch anywhere, or flip one byte of it: the
    // decoder must reject the buffer or produce the visibly different
    // batch those bytes spell — never the original from damaged bytes.
    check_with(chaos_cases(), "batch_corruption_never_silently_round_trips", |s| {
        let full = encode_frame(&Wire::Batch(s.vec_with(2..6, arb_inner_frame)));
        codec_corruption(s, &full, |b| {
            decode_frame(b.into()).ok().map(|w| encode_frame(&w).to_vec())
        })
    });
}

// ---- lane assignment properties ----

#[test]
fn lane_assignment_is_pure_and_bounded() {
    check_with(chaos_cases(), "lane_assignment_is_pure_and_bounded", |s| {
        let gid = arb_node_ref(s);
        let seed = s.any_u64();
        let lanes = s.usize_in(1..9);
        let lane = lane_of(gid, seed, lanes);
        prop_assert!(lane < lanes, "lane {lane} out of range {lanes}");
        // Pure: same inputs, same lane — across calls and clones.
        prop_assert_eq!(lane, lane_of(gid, seed, lanes));
        // Degenerate cases pin to lane 0.
        prop_assert_eq!(lane_of(gid, seed, 1), 0);
        prop_assert_eq!(lane_of(gid, seed, 0), 0);
        Ok(())
    });
}

// ---- cluster chaos properties ----

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

/// Each injection at the hub replicates to every spoke in one burst —
/// the workload that forces the coalescer to form real batches.
const SCATTER: &str = r#"
scatter() {
    node int seen;
    hop(ll = "out"; ldir = +);
    seen = seen + 1;
}
"#;

fn arb_rates(s: &mut Source) -> FaultPlan {
    FaultPlan {
        drop_p: s.f64_in(0.0, 0.10),
        dup_p: s.f64_in(0.0, 0.10),
        reorder_p: s.f64_in(0.0, 0.10),
        reorder_delay: s.u64_in(MILLI / 10..5 * MILLI),
        crashes: Vec::new(),
    }
}

struct StarScenario {
    daemons: usize,
    spokes: usize,
    injections: usize,
    seed: u64,
    lanes: usize,
    plan: FaultPlan,
}

fn arb_star(s: &mut Source) -> StarScenario {
    let daemons = s.usize_in(2..6);
    StarScenario {
        daemons,
        // At least two spokes per daemon, so every burst has a
        // coalescible pair for every destination.
        spokes: s.usize_in(2 * daemons..17),
        injections: s.usize_in(2..9),
        seed: s.any_u64() ^ fault_seed(),
        lanes: s.usize_in(1..5),
        plan: arb_rates(s),
    }
}

struct StarResult {
    faults: Vec<(MessengerId, String)>,
    live_leak: i64,
    seen: i64,
    stats: msgr_sim::Stats,
}

fn run_star(
    sc: &StarScenario,
    cfg_tweak: impl Fn(&mut ClusterConfig),
) -> Result<StarResult, String> {
    let mut topo = LogicalTopology::new();
    topo.node(Value::str("hub"), DaemonId(0));
    for i in 0..sc.spokes {
        topo.node(Value::str(format!("s{i}")), DaemonId((i % sc.daemons) as u16));
        topo.link(Value::str("hub"), Value::str(format!("s{i}")), Value::str("out"), Dir::Forward);
    }
    let mut cfg = ClusterConfig::new(sc.daemons);
    cfg.seed = sc.seed;
    cfg.faults = sc.plan.clone();
    cfg.lanes = sc.lanes;
    cfg.batch = BatchPolicy::on();
    cfg_tweak(&mut cfg);
    let mut cluster = SimCluster::new(cfg);
    cluster.build(&topo).map_err(|e| e.to_string())?;
    let pid = cluster.register_program(&msgr_lang::compile(SCATTER).map_err(|e| e.to_string())?);
    for _ in 0..sc.injections {
        cluster.inject_at(&Value::str("hub"), pid, &[]).map_err(|e| e.to_string())?;
    }
    let report = cluster.run().map_err(|e| e.to_string())?;
    let mut seen = 0i64;
    for i in 0..sc.spokes {
        if let Some(Value::Int(v)) = cluster.node_var_by_name(&Value::str(format!("s{i}")), "seen")
        {
            seen += v;
        }
    }
    Ok(StarResult {
        faults: report.faults.clone(),
        live_leak: report.live_leak,
        seen,
        stats: report.stats,
    })
}

#[test]
fn chaos_batched_scatter_delivers_exactly_once() {
    check_with(chaos_cases(), "chaos_batched_scatter_delivers_exactly_once", |s| {
        let sc = arb_star(s);
        let r = run_star(&sc, |_| {})?;
        prop_assert!(r.faults.is_empty(), "unexpected faults: {:?}", r.faults);
        prop_assert_eq!(r.live_leak, 0);
        prop_assert_eq!(r.seen, (sc.injections * sc.spokes) as i64);
        prop_assert_eq!(r.stats.counter("xport_gave_up"), 0);
        prop_assert_eq!(r.stats.counter("xport_acked"), r.stats.counter("xport_sent"));
        // The workload is built so coalescing must actually fire —
        // otherwise this property is not testing batching at all.
        prop_assert!(r.stats.counter("batch_flushes") > 0, "no batches formed");
        prop_assert!(
            r.stats.counter("batch_frames") >= 2 * r.stats.counter("batch_flushes"),
            "batch with fewer than two frames"
        );
        Ok(())
    });
}

#[test]
fn chaos_batched_runs_are_lane_invariant() {
    // Same seed, same faults: lanes=1 and lanes=4 must agree on every
    // observable — deliveries, live accounting, f64-bit-identical
    // simulated time, and all counters except the lane bookkeeping.
    check_with(chaos_cases(), "chaos_batched_runs_are_lane_invariant", |s| {
        let mut sc = arb_star(s);
        sc.lanes = 1;
        let a = run_star(&sc, |_| {})?;
        sc.lanes = 4;
        let b = run_star(&sc, |_| {})?;
        prop_assert_eq!(a.seen, b.seen);
        prop_assert_eq!(a.live_leak, b.live_leak);
        prop_assert_eq!(
            a.stats.counters().collect::<Vec<_>>(),
            b.stats.counters().collect::<Vec<_>>()
        );
        Ok(())
    });
}

#[test]
fn chaos_batched_ring_walk_delivers_exactly_once() {
    // The fault_props ring walk, re-run with batching enabled and a
    // random lane count: enabling the optimization must not change the
    // exactly-once verdict on the workload the original suite pins.
    check_with(chaos_cases(), "chaos_batched_ring_walk_delivers_exactly_once", |s| {
        let plan = arb_rates(s);
        let daemons = s.usize_in(1..9);
        let nodes = s.usize_in(daemons..2 * daemons + 1);
        let msgrs = s.usize_in(1..5);
        let passes = s.i64_in(1..25);
        let mut topo = LogicalTopology::new();
        for i in 0..nodes {
            topo.node(Value::str(format!("p{i}")), DaemonId((i % daemons) as u16));
        }
        for i in 0..nodes {
            topo.link(
                Value::str(format!("p{i}")),
                Value::str(format!("p{}", (i + 1) % nodes)),
                Value::str("ring"),
                Dir::Forward,
            );
        }
        let mut cfg = ClusterConfig::new(daemons);
        cfg.seed = s.any_u64() ^ fault_seed();
        cfg.faults = plan;
        cfg.lanes = s.usize_in(1..5);
        cfg.batch = BatchPolicy::on();
        let mut cluster = SimCluster::new(cfg);
        cluster.build(&topo).map_err(|e| e.to_string())?;
        let pid = cluster.register_program(&msgr_lang::compile(WALK).map_err(|e| e.to_string())?);
        for m in 0..msgrs {
            cluster
                .inject_at(&Value::str(format!("p{}", m % nodes)), pid, &[Value::Int(passes)])
                .map_err(|e| e.to_string())?;
        }
        let report = cluster.run().map_err(|e| e.to_string())?;
        prop_assert!(report.faults.is_empty(), "unexpected faults: {:?}", report.faults);
        prop_assert_eq!(report.live_leak, 0);
        let mut visits = 0i64;
        for i in 0..nodes {
            if let Some(Value::Int(v)) =
                cluster.node_var_by_name(&Value::str(format!("p{i}")), "visits")
            {
                visits += v;
            }
        }
        prop_assert_eq!(visits, msgrs as i64 * (passes + 1));
        prop_assert_eq!(report.stats.counter("xport_gave_up"), 0);
        Ok(())
    });
}

#[test]
fn broken_retransmit_loses_whole_batches() {
    // Mutation check (see module docs). Under 40% loss a transport that
    // gives up after one retry abandons envelopes in virtually every
    // run; with batching those envelopes carry several messengers each.
    // The exactly-once property must fail — and when it does, the
    // give-up path must have faulted *every* messenger in the lost
    // batches (faults + deliveries add up to the injected population),
    // proving multi-messenger loss is accounted, not leaked.
    let failure = run_check(Config::default(), "broken_retransmit_loses_whole_batches", |s| {
        let sc = StarScenario {
            daemons: 3,
            spokes: 9,
            injections: 6,
            seed: s.any_u64(),
            lanes: 2,
            plan: FaultPlan::lossy(0.4),
        };
        let r = run_star(&sc, |cfg| cfg.retransmit.max_attempts = 2)?;
        // Accounting must balance even while delivery fails: every
        // replica either reached its spoke or was faulted on give-up.
        prop_assert!(
            r.seen + r.faults.len() as i64 == (sc.injections * sc.spokes) as i64,
            "lost batch under-accounted: seen={} faults={}",
            r.seen,
            r.faults.len()
        );
        prop_assert!(r.faults.is_empty(), "messengers abandoned: {:?}", r.faults);
        Ok(())
    });
    assert!(
        failure.is_err(),
        "a transport that gives up after one retry must fail exactly-once under batching"
    );
}

// ---- threads platform ----

fn threads_fast_path_cfg(daemons: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(daemons);
    cfg.seed = 0xBA7C4;
    cfg.lanes = 4;
    cfg.batch = BatchPolicy::on();
    cfg.local_move = true;
    cfg
}

/// A threaded ring walk at lanes=4 with batching and local moves, nodes
/// placed in contiguous per-daemon blocks so most hops are local moves.
/// Checks the full delivery count and returns the merged stats.
fn threads_lane_ring(nodes: usize, walkers: usize, passes: i64) -> msgr_sim::Stats {
    use msgr_core::ThreadCluster;
    let daemons = 4usize;
    let mut cluster = ThreadCluster::new(threads_fast_path_cfg(daemons)).expect("threads cluster");
    let block = nodes / daemons;
    let mut topo = LogicalTopology::new();
    for i in 0..nodes {
        topo.node(Value::str(format!("p{i}")), DaemonId((i / block) as u16));
    }
    for i in 0..nodes {
        topo.link(
            Value::str(format!("p{i}")),
            Value::str(format!("p{}", (i + 1) % nodes)),
            Value::str("ring"),
            Dir::Forward,
        );
    }
    cluster.build(&topo).expect("build");
    let pid = cluster.register_program(&msgr_lang::compile(WALK).expect("compile"));
    for m in 0..walkers {
        cluster
            .inject_at(&Value::str(format!("p{}", m % nodes)), pid, &[Value::Int(passes)])
            .expect("inject");
    }
    let rep = cluster.run().expect("run");
    assert!(rep.faults.is_empty(), "faults: {:?}", rep.faults);
    let mut visits = 0i64;
    for i in 0..nodes {
        if let Some(Value::Int(v)) =
            cluster.node_var_by_name(&Value::str(format!("p{i}")), "visits")
        {
            visits += v;
        }
    }
    assert_eq!(visits, walkers as i64 * (passes + 1));
    assert_eq!(rep.stats.counter("terminated"), walkers as u64);
    rep.stats
}

#[test]
fn threads_ring_with_lanes_batching_and_local_moves_delivers_exactly_once() {
    threads_lane_ring(16, 16, 12);
}

#[test]
fn threads_scatter_forms_batches_and_delivers_exactly_once() {
    // The threads driver coalesces each segment's burst itself: a hub on
    // daemon 0 replicating to spokes that all live on daemon 1 must
    // leave as batches, and every copy must still arrive once.
    use msgr_core::ThreadCluster;
    let (spokes, scatters) = (8usize, 8usize);
    let mut cluster = ThreadCluster::new(threads_fast_path_cfg(2)).expect("threads cluster");
    let mut topo = LogicalTopology::new();
    topo.node(Value::str("hub"), DaemonId(0));
    for i in 0..spokes {
        topo.node(Value::str(format!("s{i}")), DaemonId(1));
        topo.link(Value::str("hub"), Value::str(format!("s{i}")), Value::str("out"), Dir::Forward);
    }
    cluster.build(&topo).expect("build");
    let pid = cluster.register_program(&msgr_lang::compile(SCATTER).expect("compile"));
    for _ in 0..scatters {
        cluster.inject_at(&Value::str("hub"), pid, &[]).expect("inject");
    }
    let rep = cluster.run().expect("run");
    assert!(rep.faults.is_empty(), "faults: {:?}", rep.faults);
    let mut seen = 0i64;
    for i in 0..spokes {
        if let Some(Value::Int(v)) = cluster.node_var_by_name(&Value::str(format!("s{i}")), "seen")
        {
            seen += v;
        }
    }
    assert_eq!(seen, (scatters * spokes) as i64);
    assert!(
        rep.stats.counter("batch_frames") >= 2 * scatters as u64,
        "scatter fan-out never batched: {} frames",
        rep.stats.counter("batch_frames")
    );
}

// ---- soak ----

/// Lane-contention soak: [`threads_lane_ring`] at a size where the
/// rotating scheduler actually contends (steals observed). Ignored by
/// default; run via `scripts/ci.sh --soak` (or `cargo test -- --ignored`).
#[test]
#[ignore = "soak: long threaded run, exercised by scripts/ci.sh --soak"]
fn soak_lane_contention_threads() {
    let stats = threads_lane_ring(64, 128, 400);
    assert!(stats.counter("lane_steals") > 0, "4 lanes never contended");
}

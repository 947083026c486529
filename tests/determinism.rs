//! Bit-level determinism of the simulated applications: the same
//! `ClusterConfig` (including its `seed`) must produce byte-identical
//! results and identical simulated-time statistics on every run. This is
//! what makes the paper's figures reproducible and the msgr-check seeds
//! meaningful.

use std::sync::Arc;

use messengers::apps::calib::Calib;
use messengers::apps::mandel::{MandelScene, MandelWork};
use messengers::apps::matmul::{test_matrix, MatmulScene};
use messengers::apps::{mandel_msgr, matmul_msgr};
use messengers::core::{ClusterConfig, ExecMode};
use msgr_sim::{CrashEvent, FaultPlan, Stats, MILLI};

fn counters(stats: &Stats) -> Vec<(&'static str, u64)> {
    stats.counters().collect()
}

#[test]
fn mandel_runs_are_bit_identical() {
    let calib = Calib::default();
    let work = Arc::new(MandelWork::compute(MandelScene::paper(128, 8)));
    let run = || {
        let mut cfg = ClusterConfig::new(8);
        cfg.seed = 42;
        mandel_msgr::run_sim(&work, 8, &calib, cfg).expect("run")
    };
    let a = run();
    let b = run();
    assert_eq!(a.checksum, b.checksum, "image checksum must be identical");
    assert_eq!(a.seconds.to_bits(), b.seconds.to_bits(), "simulated time must be identical");
    assert_eq!(counters(&a.stats), counters(&b.stats), "all counters must be identical");
}

#[test]
fn mandel_seed_is_part_of_the_configuration() {
    // Different seeds may legally produce identical timings, but the
    // results must still verify: same image either way.
    let calib = Calib::default();
    let work = Arc::new(MandelWork::compute(MandelScene::paper(64, 4)));
    let run = |seed: u64| {
        let mut cfg = ClusterConfig::new(4);
        cfg.seed = seed;
        mandel_msgr::run_sim(&work, 4, &calib, cfg).expect("run")
    };
    assert_eq!(run(1).checksum, run(2).checksum, "checksum is seed-independent");
}

#[test]
fn faulty_mandel_runs_are_bit_identical() {
    // Fault injection must not cost determinism: the same config and
    // fault plan (drops, duplicates, reordering, a crash/restart cycle)
    // reproduce the same checksum, the same counters, and the same
    // simulated time to the last f64 bit. And because delivery is
    // exactly-once, the checksum must equal the fault-free run's.
    let calib = Calib::default();
    let work = Arc::new(MandelWork::compute(MandelScene::paper(128, 8)));
    let run = |faults: FaultPlan| {
        let mut cfg = ClusterConfig::new(8);
        cfg.seed = 42;
        cfg.faults = faults;
        mandel_msgr::run_sim(&work, 8, &calib, cfg).expect("run")
    };
    let plan = FaultPlan {
        drop_p: 0.08,
        dup_p: 0.05,
        reorder_p: 0.05,
        reorder_delay: 2 * MILLI,
        crashes: vec![CrashEvent::transient(3, 20 * MILLI, 25 * MILLI)],
    };
    let a = run(plan.clone());
    let b = run(plan);
    assert_eq!(a.checksum, b.checksum, "faulty runs must agree with each other");
    assert_eq!(a.seconds.to_bits(), b.seconds.to_bits(), "simulated time must be identical");
    assert_eq!(counters(&a.stats), counters(&b.stats), "all counters must be identical");
    assert!(a.stats.counter("net_frames_lost") > 0, "the plan must actually inject faults");
    let clean = run(FaultPlan::none());
    assert_eq!(a.checksum, clean.checksum, "loss must never corrupt the image");
}

fn fnv1a(h: &mut u64, bytes: impl IntoIterator<Item = u8>) {
    for b in bytes {
        *h = (*h ^ b as u64).wrapping_mul(0x100000001b3);
    }
}

/// FNV-1a over every (key, value) counter pair, in `Stats` order.
fn counters_fnv(stats: &Stats) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for (k, v) in stats.counters() {
        fnv1a(&mut h, k.bytes());
        fnv1a(&mut h, v.to_le_bytes());
    }
    h
}

#[test]
fn mandel_default_config_matches_golden() {
    // What `ClusterConfig::new(4)` + seed 42 produces, bit for bit: image
    // checksum, f64 simulated time, and every counter. The counter FNV
    // also covers the register-time `compile_*` and `analysis_typed_loops`
    // counters, which are charged identically in both exec modes. If a
    // scheduler change legitimately alters these, re-capture the goldens
    // in the same PR and say so in its log.
    let calib = Calib::default();
    let work = Arc::new(MandelWork::compute(MandelScene::paper(64, 4)));
    let mut cfg = ClusterConfig::new(4);
    cfg.seed = 42;
    let run = mandel_msgr::run_sim(&work, 4, &calib, cfg).expect("run");
    assert_eq!(run.checksum, 7379371940502171737, "image checksum drifted from baseline");
    assert_eq!(
        run.seconds.to_bits(),
        0x3fb6a77a57dfe5d9,
        "simulated seconds drifted from baseline"
    );
    assert_eq!(counters_fnv(&run.stats), 0x74748c056344d0d6, "counters drifted from baseline");
}

#[test]
fn killed_mandel_matches_golden() {
    // The one golden that loses a checkpoint *holder*: daemon 3 is
    // daemon 2's ring successor, so killing both before either death is
    // detected restores daemon 2 from its second replica (k = 2) and
    // adopts its transport channels on daemon 4 — the scenario of
    // `mandel_msgr::tests::sim_survives_killing_worker_and_its_replica_holder`.
    let calib = Calib::default();
    let work = Arc::new(MandelWork::compute(MandelScene::paper(64, 4)));
    let mut cfg = ClusterConfig::new(6);
    cfg.seed = 7;
    cfg.replication = 2;
    cfg.faults = FaultPlan {
        crashes: vec![CrashEvent::kill(2, 3 * MILLI), CrashEvent::kill(3, 5 * MILLI)],
        ..FaultPlan::none()
    };
    let run = mandel_msgr::run_sim(&work, 6, &calib, cfg).expect("run");
    assert_eq!(run.stats.counter("restores"), 2, "both victims must be restored");
    assert_eq!(
        run.seconds.to_bits(),
        0x3fe0a6531b30072f,
        "simulated seconds drifted from baseline"
    );
    assert_eq!(counters_fnv(&run.stats), 0x08600bba8ec449af, "counters drifted from baseline");
}

#[test]
fn matmul_default_config_matches_golden() {
    // Companion golden to `mandel_default_config_matches_golden`, pinning the
    // matmul product bits and simulated time under the default config.
    let calib = Calib::default();
    let scene = MatmulScene::new(2, 16);
    let a = test_matrix(scene.n(), 1);
    let b = test_matrix(scene.n(), 2);
    let mut cfg = ClusterConfig::new(4);
    cfg.seed = 7;
    let r = matmul_msgr::run_sim(scene, &a, &b, &calib, cfg).expect("run");
    let mut ph: u64 = 0xcbf29ce484222325;
    for f in r.product.as_slice() {
        fnv1a(&mut ph, f.to_bits().to_le_bytes());
    }
    assert_eq!(ph, 0xcb4ff733ed730fb1, "product bits drifted from baseline");
    assert_eq!(r.seconds.to_bits(), 0x3faeb851eb851eb8, "simulated seconds drifted from baseline");
}

#[test]
fn mandel_golden_holds_under_compiled_execution() {
    // Entering fused loops is an execution strategy, never an
    // observable behavior change: with `exec = Compiled` the mandel run
    // must reproduce the *same* pinned golden as the interpreter —
    // image checksum, f64 simulated time, and the counter FNV (the
    // `compile_*` counters are charged at register time in both modes,
    // so even those agree).
    let calib = Calib::default();
    let work = Arc::new(MandelWork::compute(MandelScene::paper(64, 4)));
    let mut cfg = ClusterConfig::new(4);
    cfg.seed = 42;
    cfg.exec = ExecMode::Compiled;
    let run = mandel_msgr::run_sim(&work, 4, &calib, cfg).expect("run");
    assert_eq!(run.checksum, 7379371940502171737, "compiled image checksum diverged from interp");
    assert_eq!(
        run.seconds.to_bits(),
        0x3fb6a77a57dfe5d9,
        "compiled simulated seconds diverged from interp"
    );
    assert_eq!(counters_fnv(&run.stats), 0x74748c056344d0d6, "compiled counters diverged");
    assert!(run.stats.counter("compile_programs") > 0, "registry must have compiled the program");
}

#[test]
fn matmul_golden_holds_under_compiled_execution() {
    // Companion to `mandel_golden_holds_under_compiled_execution`: the
    // matmul product bits and simulated time pinned by
    // `matmul_default_config_matches_golden` must be engine-independent.
    let calib = Calib::default();
    let scene = MatmulScene::new(2, 16);
    let a = test_matrix(scene.n(), 1);
    let b = test_matrix(scene.n(), 2);
    let mut cfg = ClusterConfig::new(4);
    cfg.seed = 7;
    cfg.exec = ExecMode::Compiled;
    let r = matmul_msgr::run_sim(scene, &a, &b, &calib, cfg).expect("run");
    let mut ph: u64 = 0xcbf29ce484222325;
    for f in r.product.as_slice() {
        fnv1a(&mut ph, f.to_bits().to_le_bytes());
    }
    assert_eq!(ph, 0xcb4ff733ed730fb1, "compiled product bits diverged from interp");
    assert_eq!(
        r.seconds.to_bits(),
        0x3faeb851eb851eb8,
        "compiled simulated seconds diverged from interp"
    );
}

#[test]
fn exec_mode_never_changes_sim_traces() {
    // Strongest cross-engine check: with tracing on, the merged
    // flight-recorder JSONL of a same-seed run must be byte-identical
    // at `--exec interp` and `--exec compiled`. Every hop, park,
    // segment boundary, and vtime in the causal record — and even the
    // register-time compile events — must agree, or the compiled
    // engine has observably changed the program.
    let calib = Calib::default();
    let work = Arc::new(MandelWork::compute(MandelScene::paper(64, 4)));
    let run = |exec: ExecMode| {
        let mut cfg = ClusterConfig::new(4);
        cfg.seed = 42;
        cfg.exec = exec;
        cfg.trace = messengers::core::TraceConfig::on();
        mandel_msgr::run_sim(&work, 4, &calib, cfg).expect("run")
    };
    let interp = run(ExecMode::Interp);
    let compiled = run(ExecMode::Compiled);
    assert_eq!(interp.checksum, compiled.checksum, "image must be engine-independent");
    assert_eq!(
        interp.seconds.to_bits(),
        compiled.seconds.to_bits(),
        "simulated time must be engine-independent"
    );
    assert_eq!(
        counters(&interp.stats),
        counters(&compiled.stats),
        "counters must be engine-independent"
    );
    let a = interp.trace.as_ref().expect("trace enabled").to_jsonl();
    let b = compiled.trace.as_ref().expect("trace enabled").to_jsonl();
    assert!(a == b, "merged trace JSONL differs between interp and compiled execution");
}

#[test]
fn matmul_runs_are_bit_identical() {
    let calib = Calib::default();
    let scene = MatmulScene::new(2, 16);
    let a = test_matrix(scene.n(), 1);
    let b = test_matrix(scene.n(), 2);
    let run = || {
        let mut cfg = ClusterConfig::new(4);
        cfg.seed = 7;
        matmul_msgr::run_sim(scene, &a, &b, &calib, cfg).expect("run")
    };
    let r1 = run();
    let r2 = run();
    let bits =
        |m: &messengers::vm::Matrix| m.as_slice().iter().map(|f| f.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(&r1.product), bits(&r2.product), "product must be byte-identical");
    assert_eq!(r1.seconds.to_bits(), r2.seconds.to_bits(), "simulated time must be identical");
    assert_eq!(counters(&r1.stats), counters(&r2.stats), "all counters must be identical");
}

#[test]
fn hot_loop_state_is_engine_independent() {
    // The apps above spend their time in natives; this ring walker
    // spends it in an MSGR-C float loop (z = z² − ¾, a bounded orbit) —
    // the shape fused and typed loops rewrite. Interpreter and compiled
    // execution must leave every node variable and the simulated clock
    // bit-identical, and the compiled run must have fused and typed the
    // inner loop.
    use messengers::core::topology::LogicalTopology;
    use messengers::core::{DaemonId, SimCluster};
    use messengers::vm::{Dir, Value};
    const HOT_LOOP: &str = r#"
    spin(passes, iters) {
        int i = 0;
        int k;
        float z = 0.0;
        node float field;
        while (i < passes) {
            k = 0;
            while (k < iters) {
                z = z * z - 0.75;
                k = k + 1;
            }
            hop(ll = "ring"; ldir = +);
            field = field + z;
            i = i + 1;
        }
    }
    "#;
    let names: Vec<Value> = (0..8).map(|i| Value::str(format!("p{i}"))).collect();
    let run = |exec: ExecMode| {
        let mut cfg = ClusterConfig::new(4);
        cfg.seed = 42;
        cfg.exec = exec;
        let mut cluster = SimCluster::new(cfg);
        let mut topo = LogicalTopology::new();
        for (i, name) in names.iter().enumerate() {
            topo.node(name.clone(), DaemonId((i % 4) as u16));
            topo.link(name.clone(), names[(i + 1) % 8].clone(), Value::str("ring"), Dir::Forward);
        }
        cluster.build(&topo).expect("build ring");
        let pid = cluster.register_program(&messengers::lang::compile(HOT_LOOP).expect("compile"));
        for name in &names[..4] {
            cluster.inject_at(name, pid, &[Value::Int(8), Value::Int(100)]).expect("inject");
        }
        let rep = cluster.run().expect("run");
        assert!(rep.faults.is_empty(), "faults: {:?}", rep.faults);
        let fields: Vec<u64> = names
            .iter()
            .map(|n| match cluster.node_var_by_name(n, "field") {
                Some(Value::Float(f)) => f.to_bits(),
                other => panic!("{n}.field = {other:?}"),
            })
            .collect();
        (rep.seconds.to_bits(), fields, rep.stats)
    };
    let (i_clock, i_fields, _) = run(ExecMode::Interp);
    let (c_clock, c_fields, compiled) = run(ExecMode::Compiled);
    assert_eq!((i_clock, &i_fields), (c_clock, &c_fields), "compiled execution moved the state");
    assert!(compiled.counter("compile_superinsts") > 0, "no superinstructions formed");
    assert!(compiled.counter("analysis_typed_loops") > 0, "the pure inner loop was not typed");
}

#[test]
fn optimistic_runs_match_golden() {
    // Time Warp's fence: the swarm at two densities and the 3x3 matmul
    // under optimistic virtual time, plus one traced two-daemon ring, pin
    // simulated time, result, counters and the merged event stream. Across
    // the set, speculation must roll back, chase its sends with
    // anti-messengers, and annihilate them.
    use messengers::apps::swarm::{self, SwarmScene};
    use messengers::core::topology::LogicalTopology;
    use messengers::core::{DaemonId, SimCluster, TraceConfig, VtMode};
    use messengers::vm::{Dir, Value};
    let mut speculation = [0u64; 3];
    let mut tally = |stats: &Stats| {
        for (n, key) in speculation.iter_mut().zip(["rollbacks", "anti_sent", "annihilations"]) {
            *n += stats.counter(key);
        }
    };

    let mut swarms = Vec::new();
    for ants in [12i64, 48] {
        let scene = SwarmScene { side: 6, ants, ticks: 16, daemons: 4 };
        let run = swarm::run(scene, VtMode::Optimistic).expect("swarm");
        let mut fh: u64 = 0xcbf29ce484222325;
        for cell in &run.field {
            fnv1a(&mut fh, cell.to_le_bytes());
        }
        tally(&run.stats);
        swarms.push((run.seconds.to_bits(), fh, counters_fnv(&run.stats)));
    }

    let scene = MatmulScene::new(3, 50);
    let (a, b) = (test_matrix(scene.n(), 1), test_matrix(scene.n(), 2));
    let mut cfg = ClusterConfig::new(9);
    cfg.vt_mode = VtMode::Optimistic;
    let mm = matmul_msgr::run_sim(scene, &a, &b, &Calib::default(), cfg).expect("matmul");
    let mut ph: u64 = 0xcbf29ce484222325;
    for f in mm.product.as_slice() {
        fnv1a(&mut ph, f.to_bits().to_le_bytes());
    }
    tally(&mm.stats);

    // `cluster.rs::optimistic_matches_conservative`, traced.
    let ring = messengers::lang::compile(
        r#"main(k, rounds) {
            int i;
            node int acc;
            for (i = 0; i < rounds; i = i + 1) {
                M_sched_time_dlt(1.0);
                acc = acc + k + i;
                hop(ll = "ring");
            }
        }"#,
    )
    .expect("compile");
    let mut cfg = ClusterConfig::new(2);
    cfg.net = messengers::core::NetKind::Ideal;
    cfg.vt_mode = VtMode::Optimistic;
    cfg.trace = TraceConfig::on();
    let mut c = SimCluster::new(cfg);
    let mut topo = LogicalTopology::new();
    topo.node(Value::str("r0"), DaemonId(0));
    topo.node(Value::str("r1"), DaemonId(1));
    topo.link(Value::str("r0"), Value::str("r1"), Value::str("ring"), Dir::Any);
    c.build(&topo).expect("build ring");
    let pid = c.register_program(&ring);
    c.inject_at(&Value::str("r0"), pid, &[Value::Int(1), Value::Int(4)]).expect("inject");
    c.inject_at(&Value::str("r1"), pid, &[Value::Int(100), Value::Int(4)]).expect("inject");
    let rep = c.run().expect("run");
    assert!(rep.faults.is_empty(), "faults: {:?}", rep.faults);
    let mut th: u64 = 0xcbf29ce484222325;
    fnv1a(&mut th, rep.trace.expect("tracing on").to_jsonl().bytes());
    tally(&rep.stats);

    assert_eq!(
        swarms,
        [
            (0x3faeb851eb851eb8, 0xa8d786c4b65780a5, 0x88b9f9d59f7e445e),
            (0x3fceb851eb851eb8, 0xc1cbe9811e0d5765, 0xec5785f37fc4c6ef),
        ],
        "optimistic swarm (seconds, field, counters) drifted from baseline"
    );
    assert_eq!(
        (mm.seconds.to_bits(), ph, counters_fnv(&mm.stats)),
        (0x3fc956ace43df16c, 0xde4307f39fe6ada1, 0xf2dfbbf3de62e714),
        "optimistic matmul (seconds, product, counters) drifted from baseline"
    );
    assert_eq!(
        (rep.seconds.to_bits(), th, counters_fnv(&rep.stats)),
        (0x3f8eb851eb851eb8, 0x586afe948faca22e, 0x35ecf9407b020e22),
        "optimistic ring (seconds, trace, counters) drifted from baseline"
    );
    let [rollbacks, anti_sent, annihilations] = speculation;
    assert!(rollbacks > 0, "no rollback");
    assert!(anti_sent > 0, "no anti-messenger sent");
    assert!(annihilations > 0, "no annihilation");
}

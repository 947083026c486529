//! Cross-implementation equivalence: every system computes the same
//! artifact. This is what makes the benchmark numbers comparable.

use std::sync::Arc;

use messengers::apps::calib::Calib;
use messengers::apps::mandel::{render_sequential, MandelScene, MandelWork};
use messengers::apps::matmul::{max_abs_diff, multiply_reference, test_matrix};
use messengers::apps::{mandel_msgr, mandel_pvm, matmul_msgr, matmul_pvm, MatmulScene};
use messengers::core::config::{NetKind, VtMode};
use messengers::core::ClusterConfig;
use messengers::pvm::PvmNet;

#[test]
fn mandel_all_four_implementations_agree() {
    let work = Arc::new(MandelWork::compute(MandelScene::paper(96, 4)));
    let calib = Calib::default();
    let (_, seq) = render_sequential(&work, &calib);

    let msgr_sim = mandel_msgr::run_sim(&work, 4, &calib, ClusterConfig::new(4)).unwrap();
    assert_eq!(msgr_sim.checksum, seq, "messengers/sim");

    let pvm_sim = mandel_pvm::run_sim(&work, 4, &calib, PvmNet::Ethernet100).unwrap();
    assert_eq!(pvm_sim.checksum, seq, "pvm/sim");

    let msgr_threads = mandel_msgr::run_threads(work.scene, 4).unwrap();
    assert_eq!(msgr_threads.checksum, seq, "messengers/threads");

    let pvm_threads = mandel_pvm::run_threads(work.scene, 4).unwrap();
    assert_eq!(pvm_threads.checksum, seq, "pvm/threads");
}

#[test]
fn mandel_proc_count_never_changes_the_image() {
    let work = Arc::new(MandelWork::compute(MandelScene::paper(64, 8)));
    let calib = Calib::default();
    let (_, seq) = render_sequential(&work, &calib);
    for procs in [1usize, 2, 3, 7, 16] {
        let m = mandel_msgr::run_sim(&work, procs, &calib, ClusterConfig::new(procs)).unwrap();
        assert_eq!(m.checksum, seq, "messengers at {procs}");
        let v = mandel_pvm::run_sim(&work, procs, &calib, PvmNet::Ethernet100).unwrap();
        assert_eq!(v.checksum, seq, "pvm at {procs}");
    }
}

#[test]
fn matmul_three_ways_match_reference() {
    let scene = MatmulScene::new(3, 8);
    let a = test_matrix(scene.n(), 21);
    let b = test_matrix(scene.n(), 22);
    let reference = multiply_reference(&a, &b);
    let calib = Calib::default();

    let msgr = matmul_msgr::run_sim(scene, &a, &b, &calib, ClusterConfig::new(9)).unwrap();
    assert!(max_abs_diff(&msgr.product, &reference) < 1e-9, "messengers");

    let pvm = matmul_pvm::run_sim(scene, &a, &b, &calib, 9, PvmNet::Ethernet100, 1.0).unwrap();
    assert!(max_abs_diff(&pvm.product, &reference) < 1e-9, "pvm");

    // Optimistic Time Warp agrees bit-for-bit with conservative.
    let mut cfg = ClusterConfig::new(9);
    cfg.vt_mode = VtMode::Optimistic;
    let opt = matmul_msgr::run_sim(scene, &a, &b, &calib, cfg).unwrap();
    assert!(max_abs_diff(&opt.product, &msgr.product) < 1e-15, "time warp");
}

#[test]
fn network_model_changes_time_but_not_results() {
    let work = Arc::new(MandelWork::compute(MandelScene::paper(64, 4)));
    let calib = Calib::default();
    let (_, seq) = render_sequential(&work, &calib);
    for net in [NetKind::Ideal, NetKind::Ethernet100, NetKind::Ethernet10] {
        let mut cfg = ClusterConfig::new(4);
        cfg.net = net;
        let run = mandel_msgr::run_sim(&work, 4, &calib, cfg).unwrap();
        assert_eq!(run.checksum, seq, "{net:?}");
    }
    // On a strictly serial workload (a messenger walking a ring), slower
    // media must cost strictly more simulated time. (The dynamic
    // manager/worker workload above is legitimately non-monotone: network
    // speed changes task-assignment order and thus load balance.)
    let walk = messengers::lang::compile(
        r#"walk(n) {
            int i;
            for (i = 0; i < n; i = i + 1) hop(ll = "ring"; ldir = +);
        }"#,
    )
    .unwrap();
    let mut times = Vec::new();
    for net in [NetKind::Ideal, NetKind::Ethernet100, NetKind::Ethernet10] {
        use messengers::core::topology::LogicalTopology;
        use messengers::core::{DaemonId, SimCluster};
        use messengers::vm::{Dir, Value};
        let mut cfg = ClusterConfig::new(4);
        cfg.net = net;
        let mut cluster = SimCluster::new(cfg);
        let mut topo = LogicalTopology::new();
        for i in 0..4 {
            topo.node(Value::str(format!("r{i}")), DaemonId(i as u16));
        }
        for i in 0..4 {
            topo.link(
                Value::str(format!("r{i}")),
                Value::str(format!("r{}", (i + 1) % 4)),
                Value::str("ring"),
                Dir::Forward,
            );
        }
        cluster.build(&topo).unwrap();
        let pid = cluster.register_program(&walk);
        cluster.inject_at(&Value::str("r0"), pid, &[Value::Int(40)]).unwrap();
        times.push(cluster.run().unwrap().seconds);
    }
    assert!(times[0] < times[1] && times[1] < times[2], "{times:?}");
}

#[test]
fn sim_runs_are_deterministic() {
    let scene = MatmulScene::new(2, 8);
    let a = test_matrix(scene.n(), 3);
    let b = test_matrix(scene.n(), 4);
    let calib = Calib::default();
    let r1 = matmul_msgr::run_sim(scene, &a, &b, &calib, ClusterConfig::new(4)).unwrap();
    let r2 = matmul_msgr::run_sim(scene, &a, &b, &calib, ClusterConfig::new(4)).unwrap();
    assert_eq!(r1.seconds, r2.seconds, "simulated time must be bit-identical");
    assert_eq!(r1.product, r2.product);

    let work = Arc::new(MandelWork::compute(MandelScene::paper(64, 4)));
    let m1 = mandel_pvm::run_sim(&work, 3, &calib, PvmNet::Ethernet100).unwrap();
    let m2 = mandel_pvm::run_sim(&work, 3, &calib, PvmNet::Ethernet100).unwrap();
    assert_eq!(m1.seconds, m2.seconds);
}

#[test]
fn carry_code_changes_cost_not_result() {
    let work = Arc::new(MandelWork::compute(MandelScene::paper(64, 4)));
    let calib = Calib::default();
    let (_, seq) = render_sequential(&work, &calib);
    let mut cfg = ClusterConfig::new(4);
    cfg.carry_code = true;
    let run = mandel_msgr::run_sim(&work, 4, &calib, cfg).unwrap();
    assert_eq!(run.checksum, seq);
}

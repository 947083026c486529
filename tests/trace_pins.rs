//! Byte-level pins of the merged flight-recorder stream: length and
//! FNV-1a of the trace JSONL for four seeded sim runs. Counters can stay
//! put while the event stream moves (an event reordered, a vtime off by
//! one segment), so a refactor of the daemon is held to these, not only
//! to the goldens in `determinism.rs`. A change that legitimately alters
//! the stream re-captures the pins in the same PR and says so in its log.

use std::sync::Arc;

use messengers::apps::calib::Calib;
use messengers::apps::mandel::{MandelScene, MandelWork};
use messengers::apps::matmul::{test_matrix, MatmulScene};
use messengers::apps::{mandel_msgr, matmul_msgr};
use messengers::core::topology::LogicalTopology;
use messengers::core::{ClusterConfig, ExecMode, SimCluster, Trace, TraceConfig};
use messengers::sim::{CrashEvent, FaultPlan, MILLI};
use messengers::vm::Value;

/// `(bytes, FNV-1a)` of the trace as `msgr run --trace` would write it.
fn pin(trace: Option<Trace>) -> (usize, u64) {
    let jsonl = trace.expect("tracing on").to_jsonl();
    let fnv = jsonl
        .bytes()
        .fold(0xcbf29ce484222325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100000001b3));
    (jsonl.len(), fnv)
}

#[test]
fn mandel_trace_is_pinned() {
    let work = Arc::new(MandelWork::compute(MandelScene::paper(64, 4)));
    let mut cfg = ClusterConfig::new(4);
    cfg.seed = 42;
    cfg.trace = TraceConfig::on();
    let run = mandel_msgr::run_sim(&work, 4, &Calib::default(), cfg).expect("run");
    assert_eq!(pin(run.trace), (6837, 4450957387287228599));
}

#[test]
fn matmul_trace_is_pinned() {
    let scene = MatmulScene::new(2, 16);
    let (a, b) = (test_matrix(scene.n(), 1), test_matrix(scene.n(), 2));
    let mut cfg = ClusterConfig::new(4);
    cfg.seed = 7;
    cfg.trace = TraceConfig::on();
    let run = matmul_msgr::run_sim(scene, &a, &b, &Calib::default(), cfg).expect("run");
    assert_eq!(pin(run.trace), (7352, 5487012336322949856));
}

/// `msgr run SCRIPT --topology ring.topo --daemons 4 --inject r0:ARGS
/// --seed 7 --trace`, as `scripts/ci.sh` records it.
fn ring_run(script: &str, args: &[i64], tweak: impl FnOnce(&mut ClusterConfig)) -> (usize, u64) {
    let mut cfg = ClusterConfig::new(4);
    cfg.seed = 7;
    cfg.trace = TraceConfig::on();
    tweak(&mut cfg);
    let mut cluster = SimCluster::new(cfg);
    let topo = LogicalTopology::parse(include_str!("../examples/scripts/ring.topo")).unwrap();
    cluster.build(&topo).expect("build ring");
    let pid = cluster.register_program(&messengers::lang::compile(script).expect("compile"));
    let args: Vec<Value> = args.iter().map(|&i| Value::Int(i)).collect();
    cluster.inject_at(&Value::str("r0"), pid, &args).expect("inject");
    let rep = cluster.run().expect("run");
    assert!(rep.faults.is_empty(), "faults: {:?}", rep.faults);
    pin(rep.trace)
}

#[test]
fn chaos_ring_trace_is_pinned() {
    // `--faults drop=0.05,kill=2@20`: loss, retransmits, a checkpoint
    // restore and the quorum burial all leave events in this stream.
    let got = ring_run(include_str!("../examples/scripts/walker.mc"), &[2], |cfg| {
        cfg.faults = FaultPlan {
            drop_p: 0.05,
            crashes: vec![CrashEvent::kill(2, 20 * MILLI)],
            ..FaultPlan::none()
        };
    });
    assert_eq!(got, (13703, 266848360272237711));
}

#[test]
fn profiled_hotloop_trace_is_pinned() {
    // `--inject r0:3,2000 --profile`: phase ledgers and pc samples ride
    // the stream, so their order and every charged nanosecond are pinned.
    // The engine is fixed because pc samples land on engine-specific
    // sites; the other three streams are engine-independent.
    let got = ring_run(include_str!("../examples/scripts/hotloop.mc"), &[3, 2000], |cfg| {
        cfg.profile = true;
        cfg.exec = ExecMode::Interp;
    });
    assert_eq!(got, (10578, 16284339542723870640));
}

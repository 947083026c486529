//! Matrix multiplication with MESSENGERS — the paper's Fig. 11.
//!
//! Two independent scripts, coordinated purely by global virtual time:
//! `distribute_A` messengers embody the A blocks and wake at integer
//! ticks to replicate along their row; `rotate_B` messengers embody the
//! B blocks, multiply at every half tick, and hop up their column ring.
//! The logical network is the Fig. 10 grid built by the `net_builder`
//! service ([`msgr_core::LogicalTopology::grid`]).
//!
//! Two divergences from the paper's listing (see DESIGN.md §4):
//!
//! 1. Fig. 11 as printed never assigns `curr_A` at the *origin* node of
//!    a distribution (the hop replicates only to the other row members),
//!    yet the algorithm needs the diagonal block at its own node. We set
//!    `curr_A` at the origin before hopping.
//! 2. Fig. 11 line 10 reads `M_sched_time_dlt(.5)`, which would wake
//!    `rotate_B` at 0.5, 1.0, 1.5, … — colliding with `distribute_A`'s
//!    integer-tick writes at every *even* iteration. The paper's prose
//!    says rotate_B wakes "at time 0.5 + k" (§3.2), so we schedule
//!    `M_sched_time_abs(k + 0.5)`.

use msgr_core::topology::LogicalTopology;
use msgr_core::{ClusterConfig, ClusterError, SimCluster};
use msgr_sim::Stats;
use msgr_vm::{Matrix, Value};

use crate::calib::Calib;
use crate::matmul::{BlockedLayout, MatmulScene};

/// The Fig. 11 scripts (both messengers in one compilation unit;
/// injection selects the entry function).
pub const MATMUL_SCRIPTS: &str = r#"
distribute_A(s, m, i, j) {
    block msgr_A;
    node block resid_A, curr_A;
    M_sched_time_abs((j - i + m) % m);
    msgr_A = copy_block(resid_A);
    curr_A = copy_block(msgr_A);   /* the origin needs its own block too */
    hop(ll = "row");
    curr_A = copy_block(msgr_A);
}

rotate_B(s, m, i, j) {
    int k;
    block msgr_B;
    node block resid_B, curr_A, C;
    msgr_B = copy_block(resid_B);
    for (k = 0; k < m; k = k + 1) {
        M_sched_time_abs(k + 0.5); /* synchronization: wake at k + 0.5 */
        C = block_multiply(msgr_B, curr_A, C);
        hop(ll = "column"; ldir = +);   /* rotate B to row i-1 */
    }
}
"#;

/// Outcome of a MESSENGERS matmul run.
#[derive(Debug, Clone)]
pub struct MatmulRun {
    /// Simulated seconds.
    pub seconds: f64,
    /// The assembled product matrix.
    pub product: Matrix,
    /// Counters (includes `gvt_rounds`, `rollbacks` in optimistic mode).
    pub stats: Stats,
    /// Merged flight-recorder trace (present iff `cfg.trace.enabled`).
    pub trace: Option<msgr_core::Trace>,
}

/// Run the Fig. 11 program: `m × m` grid on `cfg.daemons` daemons
/// (the paper uses m² daemons, one block per processor).
///
/// # Errors
///
/// Propagates [`ClusterError`]; faults become `ClusterError::Config`.
pub fn run_sim(
    scene: MatmulScene,
    a: &Matrix,
    b: &Matrix,
    calib: &Calib,
    cfg: ClusterConfig,
) -> Result<MatmulRun, ClusterError> {
    let m = scene.m;
    let s = scene.s;
    let layout = BlockedLayout::new(scene);
    let mut cluster = SimCluster::new(cfg);

    {
        let calib = *calib;
        cluster.register_native("copy_block", move |ctx, args| {
            let v = args.first().ok_or("copy_block needs an argument")?;
            let mat = v.as_matrix().map_err(|e| e.to_string())?;
            ctx.charge(mat.wire_bytes() * calib.flop_ns as u64 / 55); // ~1 memcpy
            Ok(Value::Mat(mat.deep_copy()))
        });
    }
    {
        let calib = *calib;
        cluster.register_native("block_multiply", move |ctx, args| {
            // Script order (Fig. 11): block_multiply(msgr_B, curr_A, C)
            // computes C + curr_A · msgr_B.
            let b_blk = args[0].as_matrix().map_err(|e| e.to_string())?;
            // Under optimistic execution a premature multiply may see a
            // not-yet-written curr_A (NULL); compute with zeros — the
            // straggler write will roll this event back and redo it.
            let zero_a;
            let a_blk = match &args[1] {
                Value::Mat(a) => a,
                Value::Null => {
                    zero_a = Matrix::zeros(b_blk.rows(), b_blk.rows());
                    &zero_a
                }
                other => return Err(format!("A must be a block, got {}", other.type_name())),
            };
            let mut c_blk = match &args[2] {
                Value::Mat(c) => c.clone(),
                Value::Null => Matrix::zeros(a_blk.rows(), b_blk.cols()),
                other => return Err(format!("C must be a block, got {}", other.type_name())),
            };
            ctx.charge(calib.block_multiply_ns(a_blk.rows()));
            crate::matmul::multiply_accumulate(&mut c_blk, a_blk, b_blk);
            Ok(Value::Mat(c_blk))
        });
    }

    cluster.build(&LogicalTopology::grid(m as usize, cluster.daemons()))?;
    // Pre-distribute the resident blocks ("we assume that the matrices
    // are already distributed over the network", §3.2) and zero C.
    for i in 0..m {
        for j in 0..m {
            let node = Value::str(format!("{i},{j}"));
            cluster.set_node_var(&node, "resid_A", Value::Mat(layout.block(a, i, j)))?;
            cluster.set_node_var(&node, "resid_B", Value::Mat(layout.block(b, i, j)))?;
            cluster.set_node_var(&node, "C", Value::Mat(Matrix::zeros(s, s)))?;
        }
    }

    let dist = msgr_lang::compile_with_entry(MATMUL_SCRIPTS, "distribute_A")
        .expect("distribute_A compiles");
    let rot = msgr_lang::compile_with_entry(MATMUL_SCRIPTS, "rotate_B").expect("rotate_B compiles");
    let dist_id = cluster.register_program(&dist);
    let rot_id = cluster.register_program(&rot);
    cluster.trace_span_begin("matmul.inject");
    for i in 0..m {
        for j in 0..m {
            let node = Value::str(format!("{i},{j}"));
            let args = [
                Value::Int(s as i64),
                Value::Int(m as i64),
                Value::Int(i as i64),
                Value::Int(j as i64),
            ];
            cluster.inject_at(&node, dist_id, &args)?;
            cluster.inject_at(&node, rot_id, &args)?;
        }
    }
    cluster.trace_span_end("matmul.inject");

    let report = cluster.run()?;
    if let Some((mid, err)) = report.faults.first() {
        return Err(ClusterError::Config(format!("messenger {mid} faulted: {err}")));
    }
    let mut blocks = Vec::with_capacity((m * m) as usize);
    for i in 0..m {
        for j in 0..m {
            let node = Value::str(format!("{i},{j}"));
            let c = cluster
                .node_var_by_name(&node, "C")
                .ok_or_else(|| ClusterError::NotFound(format!("C at {node}")))?;
            match c {
                Value::Mat(mat) => blocks.push(mat),
                other => {
                    return Err(ClusterError::Config(format!(
                        "C at {node} is {}, expected block",
                        other.type_name()
                    )))
                }
            }
        }
    }
    Ok(MatmulRun {
        seconds: report.seconds,
        product: layout.assemble(&blocks),
        stats: report.stats,
        trace: report.trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::{max_abs_diff, multiply_reference, test_matrix};
    use msgr_core::config::{NetKind, VtMode};

    fn run_scene(m: u32, s: u32, mode: VtMode) -> (Matrix, Matrix, Stats) {
        let scene = MatmulScene::new(m, s);
        let a = test_matrix(scene.n(), 1);
        let b = test_matrix(scene.n(), 2);
        let mut cfg = ClusterConfig::new((m * m) as usize);
        cfg.net = NetKind::Ideal;
        cfg.vt_mode = mode;
        let run = run_sim(scene, &a, &b, &Calib::default(), cfg).unwrap();
        let reference = multiply_reference(&a, &b);
        (run.product, reference, run.stats)
    }

    #[test]
    fn conservative_2x2_computes_the_product() {
        let (product, reference, stats) = run_scene(2, 6, VtMode::Conservative);
        assert!(max_abs_diff(&product, &reference) < 1e-9);
        assert!(stats.counter("gvt_rounds") > 0, "GVT must have driven the alternation");
    }

    #[test]
    fn conservative_3x3_computes_the_product() {
        let (product, reference, _) = run_scene(3, 5, VtMode::Conservative);
        assert!(max_abs_diff(&product, &reference) < 1e-9);
    }

    #[test]
    fn optimistic_matches_conservative() {
        let (p_cons, reference, _) = run_scene(2, 4, VtMode::Conservative);
        let (p_opt, _, _) = run_scene(2, 4, VtMode::Optimistic);
        assert!(max_abs_diff(&p_cons, &reference) < 1e-9);
        assert!(max_abs_diff(&p_opt, &reference) < 1e-9);
        assert!(max_abs_diff(&p_opt, &p_cons) < 1e-12);
    }

    #[test]
    fn grid_on_fewer_daemons_still_correct() {
        // 3x3 grid squeezed onto 4 daemons.
        let scene = MatmulScene::new(3, 4);
        let a = test_matrix(scene.n(), 3);
        let b = test_matrix(scene.n(), 4);
        let mut cfg = ClusterConfig::new(4);
        cfg.net = NetKind::Ideal;
        let run = run_sim(scene, &a, &b, &Calib::default(), cfg).unwrap();
        assert!(max_abs_diff(&run.product, &multiply_reference(&a, &b)) < 1e-9);
    }

    #[test]
    fn survives_permanent_worker_kill() {
        use msgr_sim::{CrashEvent, FaultPlan, MILLI};
        let scene = MatmulScene::new(2, 4);
        let a = test_matrix(scene.n(), 1);
        let b = test_matrix(scene.n(), 2);
        let mut cfg = ClusterConfig::new(4);
        cfg.seed = 11;
        cfg.faults =
            FaultPlan { crashes: vec![CrashEvent::kill(3, 2 * MILLI)], ..FaultPlan::none() };
        let run = run_sim(scene, &a, &b, &Calib::default(), cfg.clone()).unwrap();
        // The GVT-synchronized alternation must survive the membership
        // change: the dead daemon's grid nodes fail over, the cut
        // continues with the survivors, and the product stays exact.
        assert!(max_abs_diff(&run.product, &multiply_reference(&a, &b)) < 1e-9);
        assert_eq!(run.stats.counter("kills"), 1);
        assert_eq!(run.stats.counter("restores"), 1);
        // Bit-reproducible: the same seed replays the same recovery.
        let again = run_sim(scene, &a, &b, &Calib::default(), cfg).unwrap();
        assert_eq!(again.seconds.to_bits(), run.seconds.to_bits());
        assert!(max_abs_diff(&again.product, &run.product) == 0.0);
    }

    #[test]
    fn survives_killing_worker_and_its_replica_holder() {
        use msgr_sim::{CrashEvent, FaultPlan, MILLI};
        let scene = MatmulScene::new(2, 4);
        let a = test_matrix(scene.n(), 5);
        let b = test_matrix(scene.n(), 6);
        let mut cfg = ClusterConfig::new(6);
        cfg.seed = 11;
        cfg.replication = 2;
        // Daemon 3 holds daemon 2's checkpoint replicas and is its
        // natural heir; both die before either death is detected, so
        // recovery must come off the second holder's write-ahead copy
        // and the quorum must re-decide around the dead heir.
        cfg.faults = FaultPlan {
            crashes: vec![CrashEvent::kill(2, 2 * MILLI), CrashEvent::kill(3, 4 * MILLI)],
            ..FaultPlan::none()
        };
        let run = run_sim(scene, &a, &b, &Calib::default(), cfg.clone()).unwrap();
        assert!(max_abs_diff(&run.product, &multiply_reference(&a, &b)) < 1e-9);
        assert_eq!(run.stats.counter("kills"), 2);
        assert_eq!(run.stats.counter("restores"), 2);
        assert!(run.stats.counter("ckpt_replicas") > 0, "k = 2 must push replicas");
        // Bit-reproducible: the same seed replays the same double recovery.
        let again = run_sim(scene, &a, &b, &Calib::default(), cfg).unwrap();
        assert_eq!(again.seconds.to_bits(), run.seconds.to_bits());
        assert!(max_abs_diff(&again.product, &run.product) == 0.0);
    }

    #[test]
    fn bigger_blocks_take_longer() {
        let calib = Calib::default();
        let t = |s: u32| {
            let scene = MatmulScene::new(2, s);
            let a = test_matrix(scene.n(), 1);
            let b = test_matrix(scene.n(), 2);
            run_sim(scene, &a, &b, &calib, ClusterConfig::new(4)).unwrap().seconds
        };
        assert!(t(16) < t(48));
    }
}

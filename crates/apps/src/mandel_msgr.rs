//! Mandelbrot with MESSENGERS — the paper's Fig. 3.
//!
//! One script, no manager: `create(ALL)` clones the injected messenger
//! into a worker on every daemon; each worker shuttles between its own
//! node and the central `init` node over `$last`, pulling tasks with
//! `next_task()` and depositing results — "the workers are able to
//! coordinate themselves and hence a separate manager is unnecessary"
//! (§3.1). The non-preemptive scheduling policy makes `next_task()`
//! atomic without locks.

use std::sync::{Arc, Mutex};

use msgr_core::{Cluster, ClusterConfig, ClusterError, Platform, SimCluster, ThreadCluster};
use msgr_sim::Stats;
use msgr_vm::bytes::Bytes;
use msgr_vm::Value;

use crate::calib::Calib;
use crate::mandel::{Kernel, MandelScene, MandelWork};

/// The Fig. 3 script, verbatim modulo MSGR-C surface syntax.
pub const MANAGER_WORKER_SCRIPT: &str = r#"
manager_worker() {
    block task, res;
    create(ALL);
    hop(ll = $last);
    while ((task = next_task()) != NULL) {
        hop(ll = $last);
        res = compute(task);
        hop(ll = $last);
        deposit(res);
    }
}
"#;

/// Outcome of one Mandelbrot run.
#[derive(Debug, Clone)]
pub struct MandelRun {
    /// Runtime in seconds (simulated for [`run_sim`], wall-clock for
    /// [`run_threads`]).
    pub seconds: f64,
    /// Checksum of the assembled image (compare with the sequential
    /// baseline).
    pub checksum: u64,
    /// Execution counters.
    pub stats: Stats,
    /// Merged flight-recorder trace (present iff `cfg.trace.enabled`).
    pub trace: Option<msgr_core::Trace>,
}

/// What `compute` hands back: the block index, little-endian, then the
/// block's colors.
fn result_blob(idx: u32, colors: &[u8]) -> Value {
    let mut blob = Vec::with_capacity(4 + colors.len());
    blob.extend_from_slice(&idx.to_le_bytes());
    blob.extend_from_slice(colors);
    Value::Blob(Bytes::from(blob))
}

/// The blob `deposit` was handed, as bytes.
fn result_arg(args: &[Value]) -> Result<&[u8], String> {
    let blob = args.first().ok_or("deposit needs a result")?;
    blob.as_blob().map(|b| &b[..]).map_err(|e| e.to_string())
}

/// Write a [`result_blob`] into `image`. Any MSGR-C program can call
/// `deposit` with any blob, so a blob with no header, a block outside
/// `scene` or the wrong number of colors is refused with an error: the
/// messenger faults instead of the daemon panicking.
fn deposit_result(scene: &MandelScene, image: &mut [u8], blob: &[u8]) -> Result<(), String> {
    let Some((header, colors)) = blob.split_first_chunk::<4>() else {
        return Err(format!("a {}-byte result has no block header", blob.len()));
    };
    let idx = u32::from_le_bytes(*header);
    if idx >= scene.blocks() {
        return Err(format!("block {idx} out of range"));
    }
    if colors.len() != scene.block_pixels() as usize {
        return Err(format!("block {idx} came with {} colors", colors.len()));
    }
    MandelWork::deposit_payload(scene, image, idx, colors);
    Ok(())
}

/// Run on the simulation platform with `procs` daemons. The work table
/// supplies real per-block iteration counts; compute time is charged to
/// the worker's host, and the image is reassembled and checksummed.
///
/// # Errors
///
/// Propagates [`ClusterError`] from the cluster run.
pub fn run_sim(
    work: &Arc<MandelWork>,
    procs: usize,
    calib: &Calib,
    mut cfg: ClusterConfig,
) -> Result<MandelRun, ClusterError> {
    cfg.daemons = procs;
    run(SimCluster::new(cfg), Kernel::Charged(work.clone(), *calib)).map(|(run, _)| run)
}

/// Run on the threaded platform: the Mandelbrot kernel genuinely
/// executes inside `compute` native calls on worker threads.
///
/// # Errors
///
/// Propagates [`ClusterError`] from the cluster run.
pub fn run_threads(scene: MandelScene, procs: usize) -> Result<MandelRun, ClusterError> {
    let cluster = ThreadCluster::new(ClusterConfig::new(procs))?;
    run(cluster, Kernel::Rendered(scene)).map(|(run, _)| run)
}

/// `deposit` copies a checked block in and does not panic, so the image
/// lock cannot be poisoned.
const IMAGE: &str = "the image lock was poisoned";

/// Register Fig. 3's natives on `cluster`: `next_task` hands out the
/// block indices in turn, `compute` runs `kernel`, and `deposit` writes
/// a result into the returned image.
fn install<P: Platform>(cluster: &mut Cluster<P>, kernel: Kernel) -> Arc<Mutex<Vec<u8>>> {
    let scene = kernel.scene();
    let image = Arc::new(Mutex::new(vec![0u8; (scene.size * scene.size) as usize]));

    cluster.register_native("next_task", move |ctx, _args| {
        ctx.charge(2_000);
        let next = ctx.node_var("next_block").as_int().unwrap_or(0) as u32;
        if next >= scene.blocks() {
            return Ok(Value::Null);
        }
        ctx.set_node_var("next_block", Value::Int(next as i64 + 1));
        Ok(Value::Int(next as i64))
    });

    cluster.register_native("compute", move |ctx, args| {
        let task = args.first().ok_or("compute needs a task")?;
        let (idx, colors, ns) = kernel.block(task.as_int().map_err(|e| e.to_string())?)?;
        ctx.charge(ns);
        Ok(result_blob(idx, &colors))
    });

    let result_area = image.clone();
    cluster.register_native("deposit", move |ctx, args| {
        let blob = result_arg(args)?;
        // One copy into the result area.
        ctx.charge(blob.len() as u64 * 25);
        deposit_result(&scene, &mut result_area.lock().expect(IMAGE), blob)?;
        Ok(Value::Null)
    });
    image
}

/// Run Fig. 3 on `cluster`, its workers computing with `kernel`: the
/// run, plus its live-messenger leak (0 for a clean run).
fn run<P: Platform>(
    mut cluster: Cluster<P>,
    kernel: Kernel,
) -> Result<(MandelRun, i64), ClusterError> {
    let image = install(&mut cluster, kernel);
    let program =
        msgr_lang::compile(MANAGER_WORKER_SCRIPT).expect("manager/worker script compiles");
    let pid = cluster.register_program(&program);
    cluster.trace_span_begin("mandel.inject");
    cluster.inject(0, pid, &[])?;
    cluster.trace_span_end("mandel.inject");
    let report = cluster.run()?;
    if let Some((mid, err)) = report.faults.first() {
        return Err(ClusterError::Config(format!("messenger {mid} faulted: {err}")));
    }
    let image = image.lock().expect(IMAGE);
    let run = MandelRun {
        seconds: report.seconds,
        checksum: MandelWork::checksum(&image),
        stats: report.stats,
        trace: report.trace,
    };
    Ok((run, report.live_leak))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mandel::render_sequential;
    use msgr_core::config::NetKind;

    fn tiny_work() -> Arc<MandelWork> {
        Arc::new(MandelWork::compute(MandelScene::paper(64, 4)))
    }

    #[test]
    fn sim_image_matches_sequential() {
        let work = tiny_work();
        let calib = Calib::default();
        let (_, expected) = render_sequential(&work, &calib);
        let run = run_sim(&work, 4, &calib, ClusterConfig::new(4)).unwrap();
        assert_eq!(run.checksum, expected);
        assert!(run.seconds > 0.0);
        // 16 blocks, each shuttling twice over the spoke.
        assert!(run.stats.counter("hops") >= 32);
    }

    #[test]
    fn sim_single_processor_works() {
        let work = tiny_work();
        let calib = Calib::default();
        let (_, expected) = render_sequential(&work, &calib);
        let run = run_sim(&work, 1, &calib, ClusterConfig::new(1)).unwrap();
        assert_eq!(run.checksum, expected);
    }

    #[test]
    fn more_processors_do_not_change_the_image() {
        let work = tiny_work();
        let calib = Calib::default();
        let mut cfg = ClusterConfig::new(1);
        cfg.net = NetKind::Ideal;
        let c1 = run_sim(&work, 2, &calib, cfg.clone()).unwrap().checksum;
        let c2 = run_sim(&work, 8, &calib, cfg).unwrap().checksum;
        assert_eq!(c1, c2);
    }

    #[test]
    fn parallelism_speeds_up_the_sim() {
        let work = Arc::new(MandelWork::compute(MandelScene::paper(128, 8)));
        let calib = Calib::default();
        let t1 = run_sim(&work, 1, &calib, ClusterConfig::new(1)).unwrap().seconds;
        let t8 = run_sim(&work, 8, &calib, ClusterConfig::new(8)).unwrap().seconds;
        assert!(t8 < t1, "8 procs ({t8}) should beat 1 ({t1})");
    }

    #[test]
    fn sim_survives_permanent_worker_kill() {
        use msgr_sim::{CrashEvent, FaultPlan, MILLI};
        let work = tiny_work();
        let calib = Calib::default();
        let (_, expected) = render_sequential(&work, &calib);
        let mut cfg = ClusterConfig::new(4);
        cfg.seed = 7;
        cfg.faults =
            FaultPlan { crashes: vec![CrashEvent::kill(2, 3 * MILLI)], ..FaultPlan::none() };
        let run = run_sim(&work, 4, &calib, cfg.clone()).unwrap();
        // The image must be exact despite losing a worker daemon:
        // failover restores its node and replays uncheckpointed blocks
        // (deposits are idempotent, so replay cannot corrupt the image).
        assert_eq!(run.checksum, expected);
        assert_eq!(run.stats.counter("kills"), 1);
        assert_eq!(run.stats.counter("restores"), 1);
        assert!(run.stats.counter("checkpoints") > 0);
        // Bit-reproducible: the same seed replays the same recovery.
        let again = run_sim(&work, 4, &calib, cfg).unwrap();
        assert_eq!(again.checksum, run.checksum);
        assert_eq!(again.seconds.to_bits(), run.seconds.to_bits());
    }

    #[test]
    fn sim_survives_a_crash_window_on_the_busy_manager() {
        use msgr_sim::{CrashEvent, FaultPlan, MILLI};
        let work = tiny_work();
        let calib = Calib::default();
        let (_, expected) = render_sequential(&work, &calib);
        let mut cfg = ClusterConfig::new(4);
        cfg.seed = 7;
        // Daemon 0 holds `init`, the node every worker shuttles through.
        // It goes down (fail-recover: its state survives) while results
        // are arriving, so its deferred wake-up must come back at the
        // restart and the frames lost meanwhile must be retransmitted.
        cfg.faults = FaultPlan {
            crashes: vec![CrashEvent::transient(0, 20 * MILLI, 6 * MILLI)],
            ..FaultPlan::none()
        };
        let sim = |cfg: ClusterConfig| {
            run(SimCluster::new(cfg), Kernel::Charged(work.clone(), calib)).unwrap()
        };
        let (run, leak) = sim(cfg.clone());
        assert_eq!(run.checksum, expected);
        assert_eq!(leak, 0);
        assert_eq!(run.stats.counter("crashes"), 1);
        assert_eq!(run.stats.counter("restarts"), 1);
        assert!(run.stats.counter("crash_frames_lost") > 0, "no frame reached the crashed manager");
        // The simulated clock is the one a wake-up chain per arriving
        // frame gave: deferring through one pending wake moves no segment.
        assert_eq!(run.seconds.to_bits(), 0x3fb2_c203_7021_fbfe);
        // Bit-reproducible: the same seed replays the same outage.
        let (again, _) = sim(cfg);
        assert_eq!(again.checksum, run.checksum);
        assert_eq!(again.seconds.to_bits(), run.seconds.to_bits());
    }

    #[test]
    fn sim_survives_killing_worker_and_its_replica_holder() {
        use msgr_sim::{CrashEvent, FaultPlan, MILLI};
        let work = tiny_work();
        let calib = Calib::default();
        let (_, expected) = render_sequential(&work, &calib);
        let mut cfg = ClusterConfig::new(6);
        cfg.seed = 7;
        cfg.replication = 2;
        // Daemon 3 is daemon 2's ring successor — the first holder of
        // its checkpoint replicas and the natural heir. Killing both
        // before either death is even detected leaves only the second
        // holder's copy, which k = 2 write-ahead replication put there
        // before any of daemon 2's effects were released.
        cfg.faults = FaultPlan {
            crashes: vec![CrashEvent::kill(2, 3 * MILLI), CrashEvent::kill(3, 5 * MILLI)],
            ..FaultPlan::none()
        };
        let run = run_sim(&work, 6, &calib, cfg.clone()).unwrap();
        assert_eq!(run.checksum, expected, "the double fault must not corrupt the image");
        assert_eq!(run.stats.counter("kills"), 2);
        assert_eq!(run.stats.counter("restores"), 2);
        assert!(run.stats.counter("ckpt_replicas") > 0, "k = 2 must push replicas");
        // Bit-reproducible: the same seed replays the same double recovery.
        let again = run_sim(&work, 6, &calib, cfg).unwrap();
        assert_eq!(again.checksum, run.checksum);
        assert_eq!(again.seconds.to_bits(), run.seconds.to_bits());
    }

    #[test]
    fn a_malformed_result_is_an_error_not_a_panic() {
        let work = tiny_work();
        let scene = work.scene;
        let mut image = vec![0u8; work.pixels.len()];
        let deposit = |image: &mut [u8], blob: Value| {
            deposit_result(&scene, image, blob.as_blob().expect("result_blob makes blobs"))
        };
        let colors = work.block_payload(3);
        assert!(deposit_result(&scene, &mut image, &[3, 0, 0]).is_err());
        assert!(deposit(&mut image, result_blob(scene.blocks(), &colors)).is_err());
        assert!(deposit(&mut image, result_blob(3, &colors[1..])).is_err());
        assert!(image.iter().all(|&c| c == 0), "a refused result wrote pixels");
        deposit(&mut image, result_blob(3, &colors)).expect("a well-formed result deposits");
        assert!(image.iter().any(|&c| c != 0));
    }

    /// The faults a run of `program` on `cluster` raises, with Fig. 3's
    /// natives computing with `kernel`.
    fn faults<P: Platform>(mut cluster: Cluster<P>, kernel: Kernel, program: &str) -> Vec<String> {
        install(&mut cluster, kernel);
        let pid = cluster.register_program(&msgr_lang::compile(program).unwrap());
        cluster.inject(0, pid, &[]).unwrap();
        cluster.run().unwrap().faults.into_iter().map(|(_, err)| err).collect()
    }

    #[test]
    fn a_bad_task_index_faults_the_messenger_on_both_platforms() {
        let work = tiny_work();
        let blocks = i64::from(work.scene.blocks());
        // Below the range, one past it, and one that truncates to block 3.
        for task in [-1, blocks, (1 << 32) + 3] {
            let program = format!("bad() {{ block res; res = compute({task}); }}");
            let charged = Kernel::Charged(work.clone(), Calib::default());
            let sim = faults(SimCluster::new(ClusterConfig::new(1)), charged, &program);
            let threads = ThreadCluster::new(ClusterConfig::new(1)).unwrap();
            let threads = faults(threads, Kernel::Rendered(work.scene), &program);
            assert_eq!(sim.len(), 1, "task {task}: {sim:?}");
            assert!(sim[0].contains(&format!("block {task} out of range")), "{sim:?}");
            assert_eq!(sim, threads, "task {task}");
        }
    }

    #[test]
    fn threads_compute_the_real_image() {
        let scene = MandelScene::paper(64, 4);
        let work = MandelWork::compute(scene);
        let run = run_threads(scene, 4).unwrap();
        assert_eq!(run.checksum, MandelWork::checksum(&work.color_image()));
    }
}

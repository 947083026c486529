//! Mandelbrot with PVM — the paper's Fig. 2 manager/worker program.
//!
//! The manager spawns one worker per host, sends each a task, then loops:
//! receive a result, identify the sender, send it the next task, deposit
//! the result. When tasks run out it collects the stragglers and kills
//! the workers (here: a poison-pill task). The manager — absent from the
//! MESSENGERS version — is both extra code and a serialization point.

use std::sync::{Arc, Mutex};

use msgr_pvm::{
    Buf, Message, PvmError, PvmNet, PvmReport, PvmSim, PvmSimConfig, PvmThreads, Recv, Status,
    Task, TaskCtx, TaskId,
};
use msgr_sim::Stats;

use crate::calib::Calib;
use crate::mandel::{Kernel, MandelScene, MandelWork};

/// Message tags.
const TAG_TASK: i32 = 1;
const TAG_RESULT: i32 = 2;
/// The poison-pill task index.
const POISON: i64 = -1;
/// Only the manager writes the checksum, with one store, so its lock
/// cannot be poisoned.
const DONE: &str = "the checksum lock was poisoned";

/// Outcome of a PVM Mandelbrot run.
#[derive(Debug, Clone)]
pub struct MandelPvmRun {
    /// Runtime in seconds (simulated for [`run_sim`], wall-clock for
    /// [`run_threads`]).
    pub seconds: f64,
    /// Image checksum.
    pub checksum: u64,
    /// Counters.
    pub stats: Stats,
}

struct Worker {
    kernel: Kernel,
    manager: TaskId,
}

impl Task for Worker {
    fn resume(&mut self, ctx: &mut TaskCtx<'_>, msg: Option<Message>) -> Status {
        let Some(mut m) = msg else {
            return Status::Recv(Recv::tag(TAG_TASK));
        };
        let task = m.buf.unpack_int().expect("task index");
        if task == POISON {
            return Status::Exit;
        }
        let (idx, colors, ns) = self.kernel.block(task).expect("the manager hands out blocks");
        ctx.charge(ns);
        let mut reply = Buf::new();
        reply.pack_int(idx.into());
        reply.pack_bytes(&colors);
        ctx.send(self.manager, TAG_RESULT, reply);
        Status::Recv(Recv::tag(TAG_TASK))
    }
}

struct Manager {
    kernel: Kernel,
    nworkers: usize,
    workers: Vec<TaskId>,
    next_task: i64,
    outstanding: usize,
    image: Vec<u8>,
    /// The image checksum, once every result is in.
    done: Arc<Mutex<Option<u64>>>,
}

impl Manager {
    fn send_task(&mut self, ctx: &mut TaskCtx<'_>, to: TaskId) {
        let mut b = Buf::new();
        b.pack_int(self.next_task);
        self.next_task += 1;
        self.outstanding += 1;
        ctx.send(to, TAG_TASK, b);
    }

    fn deposit(&mut self, ctx: &mut TaskCtx<'_>, msg: &mut Message) {
        let idx = msg.buf.unpack_int().expect("result index") as u32;
        let payload = msg.buf.unpack_bytes().expect("result payload");
        // The manager copies the result into the image buffer.
        ctx.charge(payload.len() as u64 * 25);
        MandelWork::deposit_payload(&self.kernel.scene(), &mut self.image, idx, &payload);
    }
}

impl Task for Manager {
    fn resume(&mut self, ctx: &mut TaskCtx<'_>, msg: Option<Message>) -> Status {
        let total = self.kernel.scene().blocks() as i64;
        if self.workers.is_empty() {
            // Spawn one worker per host (lines 2-3 of Fig. 2), then prime
            // each with a task (lines 4-5).
            for h in 0..self.nworkers {
                let worker = Worker { kernel: self.kernel.clone(), manager: ctx.mytid() };
                let w = ctx.spawn_on(h % ctx.nhosts(), Box::new(worker));
                self.workers.push(w);
            }
            for w in self.workers.clone() {
                if self.next_task < total {
                    self.send_task(ctx, w);
                }
            }
            return Status::Recv(Recv::tag(TAG_RESULT));
        }
        let mut m = msg.expect("resumed with a result");
        self.outstanding -= 1;
        let sender = m.from;
        self.deposit(ctx, &mut m);
        if self.next_task < total {
            self.send_task(ctx, sender);
            return Status::Recv(Recv::tag(TAG_RESULT));
        }
        if self.outstanding > 0 {
            return Status::Recv(Recv::tag(TAG_RESULT));
        }
        // All results in: kill the workers (lines 11-15).
        for w in &self.workers {
            let mut b = Buf::new();
            b.pack_int(POISON);
            ctx.send(*w, TAG_TASK, b);
        }
        *self.done.lock().expect(DONE) = Some(MandelWork::checksum(&self.image));
        Status::Exit
    }
}

/// Run the Fig. 2 program on `procs` simulated hosts. Worker count =
/// host count (the paper's configuration); the manager shares host 0
/// with a worker.
///
/// # Errors
///
/// Propagates [`msgr_pvm::PvmError`].
pub fn run_sim(
    work: &Arc<MandelWork>,
    procs: usize,
    calib: &Calib,
    net: PvmNet,
) -> Result<MandelPvmRun, PvmError> {
    run_sim_routed(work, procs, calib, net, false)
}

/// As [`run_sim`], with explicit routing: `direct = true` models
/// `PvmRouteDirect` (task-to-task TCP, no pvmd copies).
///
/// # Errors
///
/// Propagates [`msgr_pvm::PvmError`].
pub fn run_sim_routed(
    work: &Arc<MandelWork>,
    procs: usize,
    calib: &Calib,
    net: PvmNet,
    direct: bool,
) -> Result<MandelPvmRun, PvmError> {
    let mut cfg = PvmSimConfig::new(procs);
    cfg.net = net;
    cfg.costs.direct_route = direct;
    run_sim_cfg(work, calib, cfg)
}

/// As [`run_sim`], but with a caller-supplied [`PvmSimConfig`] — the
/// entry point for fault-injection studies (`ablation_faults`), which
/// need to set `cfg.faults` and `cfg.seed`. Worker count = host count.
///
/// # Errors
///
/// Propagates [`msgr_pvm::PvmError`].
pub fn run_sim_cfg(
    work: &Arc<MandelWork>,
    calib: &Calib,
    cfg: PvmSimConfig,
) -> Result<MandelPvmRun, PvmError> {
    let kernel = Kernel::Charged(work.clone(), *calib);
    run(kernel, cfg.hosts, |manager| {
        let mut vm = PvmSim::new(cfg);
        vm.root(manager);
        vm.run()
    })
}

/// Run the Fig. 2 program on real OS threads (the `msgr-pvm` threaded
/// backend), one worker per host: the manager and workers are genuine
/// concurrent tasks, the fractal genuinely computes, and the image is
/// assembled from real messages.
///
/// # Errors
///
/// Propagates [`msgr_pvm::PvmError`].
pub fn run_threads(scene: MandelScene, procs: usize) -> Result<MandelPvmRun, PvmError> {
    run(Kernel::Rendered(scene), procs, |manager| PvmThreads::run(procs, manager))
}

/// Run Fig. 2 with `nworkers` workers computing with `kernel`, its
/// manager the root task of the virtual machine `vm` runs.
fn run(
    kernel: Kernel,
    nworkers: usize,
    vm: impl FnOnce(Box<dyn Task>) -> Result<PvmReport, PvmError>,
) -> Result<MandelPvmRun, PvmError> {
    let done = Arc::new(Mutex::new(None));
    let image = vec![0u8; (kernel.scene().size * kernel.scene().size) as usize];
    let manager = Manager {
        kernel,
        nworkers,
        workers: Vec::new(),
        next_task: 0,
        outstanding: 0,
        image,
        done: done.clone(),
    };
    let report = vm(Box::new(manager))?;
    let checksum = done.lock().expect(DONE).expect("manager exited without completing");
    Ok(MandelPvmRun { seconds: report.seconds, checksum, stats: report.stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mandel::render_sequential;

    fn tiny_work() -> Arc<MandelWork> {
        Arc::new(MandelWork::compute(MandelScene::paper(64, 4)))
    }

    #[test]
    fn pvm_image_matches_sequential() {
        let work = tiny_work();
        let calib = Calib::default();
        let (_, expected) = render_sequential(&work, &calib);
        let run = run_sim(&work, 4, &calib, PvmNet::Ethernet100).unwrap();
        assert_eq!(run.checksum, expected);
        assert!(run.seconds > 0.0);
        assert_eq!(run.stats.counter("spawns"), 4);
    }

    #[test]
    fn pvm_single_host_works() {
        let work = tiny_work();
        let calib = Calib::default();
        let (_, expected) = render_sequential(&work, &calib);
        let run = run_sim(&work, 1, &calib, PvmNet::Ethernet100).unwrap();
        assert_eq!(run.checksum, expected);
    }

    #[test]
    fn pvm_parallel_speedup() {
        let work = Arc::new(MandelWork::compute(MandelScene::paper(128, 8)));
        let calib = Calib::default();
        let t1 = run_sim(&work, 1, &calib, PvmNet::Ethernet100).unwrap().seconds;
        let t8 = run_sim(&work, 8, &calib, PvmNet::Ethernet100).unwrap().seconds;
        assert!(t8 < t1, "8 hosts ({t8}) should beat 1 ({t1})");
    }

    #[test]
    fn threaded_pvm_computes_the_real_image() {
        let scene = MandelScene::paper(64, 4);
        let work = MandelWork::compute(scene);
        let run = run_threads(scene, 4).unwrap();
        assert_eq!(run.checksum, MandelWork::checksum(&work.color_image()));
        assert!(run.seconds > 0.0);
    }

    #[test]
    fn message_count_matches_protocol() {
        let work = tiny_work(); // 16 blocks
        let calib = Calib::default();
        let sim = run_sim(&work, 2, &calib, PvmNet::Ideal).unwrap();
        let threads = run_threads(work.scene, 2).unwrap();
        for (backend, run) in [("sim", sim), ("threads", threads)] {
            // 16 tasks + 16 results + 2 poison pills (+2 spawn
            // announcements are not counted as messages).
            assert_eq!(run.stats.counter("messages"), 34, "{backend}");
            assert_eq!(run.stats.counter("spawns"), 2, "{backend}");
        }
    }
}

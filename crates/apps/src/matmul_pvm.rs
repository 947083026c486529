//! Matrix multiplication with PVM — the paper's Fig. 9.
//!
//! `m²` worker tasks, one per block position. Each iteration `k`: the
//! task holding the diagonal block (`j == (i+k) mod m`) multicasts its A
//! block along the row while the others receive it; everyone multiplies;
//! then every task sends its B block to its northern neighbor and
//! receives from the south. Explicit send/receive pairing replaces the
//! virtual-time coordination of the MESSENGERS version.

use std::sync::Arc;

use std::sync::Mutex;

use msgr_pvm::{Buf, Message, PvmNet, PvmSim, PvmSimConfig, Recv, Status, Task, TaskCtx, TaskId};
use msgr_sim::Stats;
use msgr_vm::Matrix;

use crate::calib::Calib;
use crate::matmul::{multiply_accumulate, BlockedLayout, MatmulScene};

const TAG_START: i32 = 10;
/// Iteration-stamped tags keep rounds separate (`TAG + k`).
const TAG_A_BASE: i32 = 100;
const TAG_B_BASE: i32 = 10_000;
const TAG_DONE: i32 = 3;

fn pack_block(buf: &mut Buf, m: &Matrix) {
    buf.pack_ints(&[m.rows() as i64, m.cols() as i64]);
    buf.pack_floats(m.as_slice());
}

fn unpack_block(buf: &mut Buf) -> Matrix {
    let dims = buf.unpack_ints().expect("block dims");
    let data = buf.unpack_floats().expect("block data");
    Matrix::from_vec(dims[0] as u32, dims[1] as u32, data)
}

/// Outcome of a PVM matmul run.
#[derive(Debug, Clone)]
pub struct MatmulPvmRun {
    /// Simulated seconds.
    pub seconds: f64,
    /// Assembled product.
    pub product: Matrix,
    /// Counters.
    pub stats: Stats,
}

enum Phase {
    AwaitStart,
    AwaitA { k: u32 },
    AwaitB { k: u32 },
}

struct Worker {
    scene: MatmulScene,
    calib: Calib,
    i: u32,
    j: u32,
    block_a: Matrix,
    block_b: Matrix,
    block_c: Matrix,
    curr_a: Option<Matrix>,
    tids: Vec<TaskId>, // all workers, row-major
    manager: TaskId,
    phase: Phase,
    out: Arc<Mutex<Vec<Option<Matrix>>>>,
}

impl Worker {
    fn row_tid(&self, j: u32) -> TaskId {
        self.tids[(self.i * self.scene.m + j) as usize]
    }

    fn north_tid(&self) -> TaskId {
        let m = self.scene.m;
        self.tids[(((self.i + m - 1) % m) * m + self.j) as usize]
    }

    fn south_tid(&self) -> TaskId {
        let m = self.scene.m;
        self.tids[(((self.i + 1) % m) * m + self.j) as usize]
    }

    /// Begin iteration `k`: multicast or await the row's A block
    /// (lines 10-14 of Fig. 9).
    fn start_iteration(&mut self, ctx: &mut TaskCtx<'_>, k: u32) -> Status {
        let m = self.scene.m;
        if k >= m {
            // Done: report C home for verification (cheap control
            // message; the paper leaves C distributed in both systems).
            let mut b = Buf::new();
            b.pack_int((self.i * m + self.j) as i64);
            ctx.send(self.manager, TAG_DONE, b);
            self.out.lock().unwrap()[(self.i * m + self.j) as usize] = Some(self.block_c.clone());
            return Status::Exit;
        }
        if self.j == (self.i + k) % m {
            // This task owns the diagonal block: multicast along the row.
            let others: Vec<TaskId> =
                (0..m).filter(|&jj| jj != self.j).map(|jj| self.row_tid(jj)).collect();
            let mut b = Buf::new();
            pack_block(&mut b, &self.block_a);
            if !others.is_empty() {
                ctx.mcast(&others, TAG_A_BASE + k as i32, b);
            }
            self.curr_a = Some(self.block_a.clone());
            self.multiply_and_rotate(ctx, k)
        } else {
            self.phase = Phase::AwaitA { k };
            Status::Recv(Recv::tag(TAG_A_BASE + k as i32))
        }
    }

    /// Lines 15-17: multiply, rotate B.
    fn multiply_and_rotate(&mut self, ctx: &mut TaskCtx<'_>, k: u32) -> Status {
        let a = self.curr_a.take().expect("A block present");
        ctx.charge(self.calib.block_multiply_ns(self.scene.s));
        multiply_accumulate(&mut self.block_c, &a, &self.block_b);
        let mut b = Buf::new();
        pack_block(&mut b, &self.block_b);
        ctx.send(self.north_tid(), TAG_B_BASE + k as i32, b);
        self.phase = Phase::AwaitB { k };
        Status::Recv(Recv::from_tag(self.south_tid(), TAG_B_BASE + k as i32))
    }
}

impl Task for Worker {
    fn resume(&mut self, ctx: &mut TaskCtx<'_>, msg: Option<Message>) -> Status {
        match (&self.phase, msg) {
            (Phase::AwaitStart, None) => Status::Recv(Recv::tag(TAG_START)),
            (Phase::AwaitStart, Some(mut m)) => {
                let raw = m.buf.unpack_ints().expect("tid table");
                self.tids = raw.into_iter().map(|t| TaskId(t as u32)).collect();
                self.start_iteration(ctx, 0)
            }
            (Phase::AwaitA { k }, Some(mut m)) => {
                let k = *k;
                self.curr_a = Some(unpack_block(&mut m.buf));
                self.multiply_and_rotate(ctx, k)
            }
            (Phase::AwaitB { k }, Some(mut m)) => {
                let k = *k;
                self.block_b = unpack_block(&mut m.buf);
                self.start_iteration(ctx, k + 1)
            }
            (_, None) => unreachable!("worker resumed without a message"),
        }
    }
}

struct Manager {
    scene: MatmulScene,
    calib: Calib,
    a: Matrix,
    b: Matrix,
    workers: Vec<TaskId>,
    done: u32,
    out: Arc<Mutex<Vec<Option<Matrix>>>>,
}

impl Task for Manager {
    fn resume(&mut self, ctx: &mut TaskCtx<'_>, msg: Option<Message>) -> Status {
        let m = self.scene.m;
        if self.workers.is_empty() {
            let layout = BlockedLayout::new(self.scene);
            for i in 0..m {
                for j in 0..m {
                    let host = ((i * m + j) as usize) % ctx.nhosts();
                    let w = ctx.spawn_on(
                        host,
                        Box::new(Worker {
                            scene: self.scene,
                            calib: self.calib,
                            i,
                            j,
                            block_a: layout.block(&self.a, i, j),
                            block_b: layout.block(&self.b, i, j),
                            block_c: Matrix::zeros(self.scene.s, self.scene.s),
                            curr_a: None,
                            tids: Vec::new(),
                            manager: ctx.mytid(),
                            phase: Phase::AwaitStart,
                            out: self.out.clone(),
                        }),
                    );
                    self.workers.push(w);
                }
            }
            // Hand every worker the task table (PVM's group service).
            let table: Vec<i64> = self.workers.iter().map(|t| t.0 as i64).collect();
            for w in self.workers.clone() {
                let mut b = Buf::new();
                b.pack_ints(&table);
                ctx.send(w, TAG_START, b);
            }
            return Status::Recv(Recv::tag(TAG_DONE));
        }
        let _ = msg.expect("DONE message");
        self.done += 1;
        if self.done == m * m {
            Status::Exit
        } else {
            Status::Recv(Recv::tag(TAG_DONE))
        }
    }
}

/// Run the Fig. 9 program on `procs` simulated hosts (the paper uses
/// `m²`). Worker startup is pre-measurement (spawn cost zeroed): the
/// paper times the multiplication phase.
///
/// # Errors
///
/// Propagates [`msgr_pvm::PvmError`].
pub fn run_sim(
    scene: MatmulScene,
    a: &Matrix,
    b: &Matrix,
    calib: &Calib,
    procs: usize,
    net: PvmNet,
    cpu_speed: f64,
) -> Result<MatmulPvmRun, msgr_pvm::PvmError> {
    let mut cfg = PvmSimConfig::new(procs);
    cfg.net = net;
    cfg.cpu_speed = cpu_speed;
    cfg.costs.spawn_ns = 0; // workers pre-started; measure the compute phase
    let mut vm = PvmSim::new(cfg);
    let out = Arc::new(Mutex::new(vec![None; (scene.m * scene.m) as usize]));
    vm.root(Box::new(Manager {
        scene,
        calib: *calib,
        a: a.clone(),
        b: b.clone(),
        workers: Vec::new(),
        done: 0,
        out: out.clone(),
    }));
    let report = vm.run()?;
    let blocks: Vec<Matrix> =
        out.lock().unwrap().iter().map(|o| o.clone().expect("all workers reported")).collect();
    let layout = BlockedLayout::new(scene);
    Ok(MatmulPvmRun {
        seconds: report.seconds,
        product: layout.assemble(&blocks),
        stats: report.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::{max_abs_diff, multiply_reference, test_matrix};

    fn verify(m: u32, s: u32, procs: usize) -> MatmulPvmRun {
        let scene = MatmulScene::new(m, s);
        let a = test_matrix(scene.n(), 1);
        let b = test_matrix(scene.n(), 2);
        let run =
            run_sim(scene, &a, &b, &Calib::default(), procs, PvmNet::Ethernet100, 1.0).unwrap();
        let reference = multiply_reference(&a, &b);
        assert!(max_abs_diff(&run.product, &reference) < 1e-9, "product mismatch for {m}x{m} grid");
        run
    }

    #[test]
    fn product_correct_2x2() {
        let run = verify(2, 6, 4);
        assert!(run.seconds > 0.0);
        assert_eq!(run.stats.counter("spawns"), 4);
    }

    #[test]
    fn product_correct_3x3() {
        verify(3, 5, 9);
    }

    #[test]
    fn product_correct_on_fewer_hosts() {
        verify(3, 4, 4);
    }

    #[test]
    fn trivial_1x1_grid() {
        // No multicast, B "rotates" to itself.
        verify(1, 8, 1);
    }

    #[test]
    fn message_volume_scales_with_m() {
        let r2 = verify(2, 4, 4);
        let r3 = verify(3, 4, 9);
        assert!(
            r3.stats.counter("message_bytes") > r2.stats.counter("message_bytes"),
            "3x3 should move more data"
        );
    }
}

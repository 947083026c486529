//! The seven workloads. Each is set up, run and verified through the
//! crates' public entry points only, on the configuration that ships:
//! `ClusterConfig::new(n)` with nothing but `seed` and `faults` set.
//!
//! A workload is a `setup` function returning an [`Armed`] job. The
//! harness times `setup` (set-up time), then `run` (the measured
//! repeat), then calls `verify` untimed. The work of a repeat is fixed by
//! the constants below, never by the clock, so every count repeats
//! exactly for a given seed.

use std::sync::Arc;

use msgr_apps::calib::Calib;
use msgr_apps::mandel::{render_sequential, MandelScene, MandelWork};
use msgr_apps::matmul::{max_abs_diff, multiply_reference, test_matrix, MatmulScene};
use msgr_apps::{mandel_msgr, mandel_pvm, matmul_msgr, matmul_pvm};
use msgr_core::{ClusterConfig, DaemonId, LogicalTopology, ThreadCluster, ThreadReport};
use msgr_pvm::PvmNet;
use msgr_sim::{CrashEvent, FaultPlan, Stats, MILLI};
use msgr_vm::{Dir, Matrix, Value};

use crate::spans::Spans;

/// Daemon threads of every `threads` workload (`nproc` is 2 on the box
/// the sizes below were measured on).
pub const THREAD_DAEMONS: usize = 2;

/// Small-state ring walker: the migrating state is two ints.
pub const HOP_WALKER: &str = r#"
walker(passes) {
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

/// The same walk carrying an argument it never reads.
pub const PAYLOAD_WALKER: &str = r#"
walker(passes, payload) {
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

/// A bounded Mandelbrot orbit (the Douady-rabbit parameter) iterated
/// `iters` times in MSGR-C between hops: call-free, counted, float
/// mul/add only. Each walker leaves its accumulator where it stops.
pub const HOTLOOP_WALKER: &str = r#"
hotloop(passes, iters) {
    int i = 0;
    int k;
    float zr; float zi; float cr; float ci; float t;
    float acc = 0.0;
    node int visits;
    node float result;
    visits = visits + 1;
    while (i < passes) {
        cr = 0.0 - 0.1226;
        ci = 0.7449;
        zr = 0.0;
        zi = 0.0;
        k = 0;
        while (k < iters) {
            t = zr * zr - zi * zi + cr;
            zi = 2.0 * zr * zi + ci;
            zr = t;
            k = k + 1;
        }
        acc = acc + zr + zi;
        hop(ll = "ring"; ldir = +);
        visits = visits + 1;
        i = i + 1;
    }
    result = acc;
}
"#;

/// Replicating hop from the hub to every spoke, then back, `rounds` times.
pub const FANOUT_WALKER: &str = r#"
fan(rounds) {
    int r = 0;
    node int seen;
    while (r < rounds) {
        hop(ll = "spoke"; ldir = +);
        seen = seen + 1;
        hop(ll = "spoke"; ldir = -);
        r = r + 1;
    }
    seen = seen + 1;
}
"#;

/// Sim-clock results of a repeat; all zero on `threads` workloads.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimClock {
    /// Sum of Messengers simulated completion time over one sweep.
    pub makespan_s: f64,
    /// Geometric mean over cells of Messengers / PVM simulated time.
    pub msgr_over_pvm: f64,
    /// Median and maximum kill → restore latency over one sweep.
    pub recovery_ms_p50: f64,
    pub recovery_ms_max: f64,
}

/// What one verified repeat produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Work units completed (the unit is the workload's `work_unit`).
    pub work: u64,
    /// Merged MESSENGERS counters of everything the repeat ran.
    pub stats: Stats,
    /// Merged PVM-baseline counters (`paper_figs` only).
    pub pvm: Stats,
    /// Output checks made and the ones that failed.
    pub attempted: u64,
    pub failures: Vec<String>,
    pub sim: SimClock,
    /// How many times the run did the work whose sequential computation
    /// set-up timed as `precompute` (0 where the two are not comparable).
    pub seq_equiv: f64,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// A set-up job: `run` is the timed region, `verify` reads results back.
pub trait Armed {
    fn run(&mut self, spans: &mut Spans);
    fn verify(&mut self, spans: &mut Spans) -> Outcome;
}

/// One row of the workload table.
pub struct Workload {
    pub name: &'static str,
    /// Why this workload is in the matrix (one line, copied into
    /// `BENCHMARK.json`).
    pub why: &'static str,
    /// What `work_per_s` counts here.
    pub work_unit: &'static str,
    /// Daemon threads sharing the wall clock (1 for `sim`).
    pub host_threads: usize,
    pub setup: fn(seed: u64, smoke: bool, spans: &mut Spans) -> Box<dyn Armed>,
}

pub const ALL: [Workload; 7] = [
    Workload {
        name: "paper_figs",
        why: "Figs. 4, 7 and 12(a) under Messengers and PVM on sim: the paper's result; only here do the simulated clock, network model, GVT and PVM baseline do the work",
        work_unit: "cells",
        host_threads: 1,
        setup: paper_figs,
    },
    Workload {
        name: "hop_ring",
        why: "16 two-int walkers on a ring where every hop crosses the 2 daemon threads: pure migration rate (dispatch, small-state codec, channel wake); VM and payload idle",
        work_unit: "hops",
        host_threads: THREAD_DAEMONS,
        setup: hop_ring,
    },
    Workload {
        name: "payload_ring",
        why: "the same walk carrying an unread 4096-byte string, 14 of 16 hops staying on one daemon: large state and loopback, so codec, local-move and live-state pruning show here",
        work_unit: "hops",
        host_threads: THREAD_DAEMONS,
        setup: payload_ring,
    },
    Workload {
        name: "hotloop_ring",
        why: "an 8192-iteration MSGR-C float loop per hop (about 240k ops per hop): VM-bound, so the execution-engine default moves this and nothing else",
        work_unit: "ops",
        host_threads: THREAD_DAEMONS,
        setup: hotloop_ring,
    },
    Workload {
        name: "fanout_star",
        why: "1000 messengers replicate hub to 8 spokes and back for 3 rounds (512 000 retirements): replication, birth/retire and same-peer bursts instead of point-to-point hops",
        work_unit: "messengers",
        host_threads: THREAD_DAEMONS,
        setup: fanout_star,
    },
    Workload {
        name: "mandel_threads",
        why: "the paper's Mandelbrot for real on 2 daemon threads, kernel-bound: the bypass workload, where runtime optimisations must predict no change and load imbalance shows",
        work_unit: "pixels",
        host_threads: THREAD_DAEMONS,
        setup: mandel_threads,
    },
    Workload {
        name: "chaos_sim",
        why: "Mandelbrot on 8 sim daemons under 5% frame loss plus one daemon kill: the only place transport, heartbeats, quorum burial, checkpoints and restore execute",
        work_unit: "cells",
        host_threads: 1,
        setup: chaos_sim,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

// ---- threads workloads driven by one MSGR-C script ----

/// A node-variable expectation checked after the run.
enum Expect {
    /// The int variable summed over `nodes` equals `total`.
    IntSum { var: &'static str, nodes: Vec<Value>, total: i64 },
    /// The float variable equals `value` bit for bit on every node.
    FloatEach { var: &'static str, nodes: Vec<Value>, value: f64 },
}

/// How a script workload's work units are counted.
#[derive(Clone, Copy)]
enum Work {
    /// A closed form of the workload's constants.
    Fixed(u64),
    /// The bytecode ops the run reports having executed.
    CountedOps,
}

/// What a script workload's run must have done.
struct Expected {
    work: Work,
    hops: u64,
    terminated: u64,
    node_vars: Vec<Expect>,
}

/// What a script workload compiles, builds and injects.
struct ScriptSpec<'a> {
    script: &'static str,
    daemons: usize,
    topo: &'a LogicalTopology,
    /// `(start node, arguments)` per injected messenger.
    injections: Vec<(Value, Vec<Value>)>,
    expected: Expected,
}

struct ScriptJob {
    cluster: ThreadCluster,
    report: Option<ThreadReport>,
    expected: Expected,
}

fn script_job(seed: u64, spans: &mut Spans, spec: ScriptSpec<'_>) -> Box<dyn Armed> {
    let program =
        spans.scope("compile", |_| msgr_lang::compile(spec.script).expect("walker compiles"));
    let mut cfg = ClusterConfig::new(spec.daemons);
    cfg.seed = seed;
    let mut cluster = ThreadCluster::new(cfg).expect("threads cluster");
    let pid = spans.scope("register", |_| cluster.register_program(&program));
    spans.scope("build", |_| cluster.build(spec.topo).expect("topology builds"));
    spans.scope("inject", |_| {
        for (node, args) in &spec.injections {
            cluster.inject_at(node, pid, args).expect("inject");
        }
    });
    Box::new(ScriptJob { cluster, report: None, expected: spec.expected })
}

impl Armed for ScriptJob {
    fn run(&mut self, spans: &mut Spans) {
        self.report = Some(spans.scope("run", |_| self.cluster.run().expect("threads run")));
    }

    fn verify(&mut self, spans: &mut Spans) -> Outcome {
        spans.enter("readback");
        let report = self.report.take().expect("verify after run");
        let want = &self.expected;
        let work = match want.work {
            Work::Fixed(n) => n,
            Work::CountedOps => report.stats.counter("ops"),
        };
        let mut out = Outcome { work, ..Outcome::default() };
        out.check(report.faults.is_empty(), || format!("messenger faults: {:?}", report.faults));
        for (name, closed) in [("hops", want.hops), ("terminated", want.terminated)] {
            let got = report.stats.counter(name);
            out.check(got == closed, || format!("{name} = {got}, closed form {closed}"));
        }
        for e in &want.node_vars {
            match e {
                Expect::IntSum { var, nodes, total } => {
                    let got: i64 = nodes
                        .iter()
                        .map(|n| match self.cluster.node_var_by_name(n, var) {
                            Some(Value::Int(v)) => v,
                            _ => 0,
                        })
                        .sum();
                    out.check(got == *total, || format!("sum of {var} = {got}, want {total}"));
                }
                Expect::FloatEach { var, nodes, value } => {
                    for n in nodes {
                        let got = self.cluster.node_var_by_name(n, var);
                        let ok =
                            matches!(got, Some(Value::Float(f)) if f.to_bits() == value.to_bits());
                        out.check(ok, || format!("{var} at {n} = {got:?}, want {value}"));
                    }
                }
            }
        }
        out.stats = report.stats;
        spans.exit();
        out
    }
}

pub const RING_NODES: usize = 16;
const RING_WALKERS: usize = 16;

fn ring_node(i: usize) -> Value {
    Value::str(format!("p{i}"))
}

/// A directed 16-node ring; `place` maps a node index to its daemon.
pub fn ring_topo(place: fn(usize) -> usize) -> LogicalTopology {
    let mut topo = LogicalTopology::new();
    for i in 0..RING_NODES {
        topo.node(ring_node(i), DaemonId(place(i) as u16));
    }
    for i in 0..RING_NODES {
        topo.link(ring_node(i), ring_node((i + 1) % RING_NODES), Value::str("ring"), Dir::Forward);
    }
    topo
}

/// Every hop crosses daemons.
fn round_robin(i: usize) -> usize {
    i % THREAD_DAEMONS
}

/// Two blocks of 8: 14 of 16 hops stay on one daemon.
fn blocked(i: usize) -> usize {
    i / (RING_NODES / THREAD_DAEMONS)
}

/// One walker per node at most; the seed only rotates which walker starts
/// where, so the work is the same for every seed.
pub fn ring_injections(seed: u64, walkers: usize, args: &[Value]) -> Vec<(Value, Vec<Value>)> {
    let offset = (seed % RING_NODES as u64) as usize;
    (0..walkers).map(|m| (ring_node((offset + m) % RING_NODES), args.to_vec())).collect()
}

fn ring_nodes() -> Vec<Value> {
    (0..RING_NODES).map(ring_node).collect()
}

/// A ring of `walkers` walkers each making `passes` hops, on `daemons`
/// daemon threads. The probes reuse this with one daemon (no thread wake)
/// and with a single walker (nothing but thread wakes).
#[allow(clippy::too_many_arguments)]
pub fn walker_ring(
    seed: u64,
    spans: &mut Spans,
    script: &'static str,
    daemons: usize,
    place: fn(usize) -> usize,
    walkers: usize,
    passes: i64,
    extra_arg: Option<Value>,
) -> Box<dyn Armed> {
    let mut args = vec![Value::Int(passes)];
    args.extend(extra_arg);
    let hops = walkers as u64 * passes as u64;
    script_job(
        seed,
        spans,
        ScriptSpec {
            script,
            daemons,
            topo: &ring_topo(place),
            injections: ring_injections(seed, walkers, &args),
            expected: Expected {
                work: Work::Fixed(hops),
                hops,
                terminated: walkers as u64,
                node_vars: vec![Expect::IntSum {
                    var: "visits",
                    nodes: ring_nodes(),
                    total: walkers as i64 * (passes + 1),
                }],
            },
        },
    )
}

fn hop_ring(seed: u64, smoke: bool, spans: &mut Spans) -> Box<dyn Armed> {
    let passes = if smoke { 2_000 } else { 64_000 };
    walker_ring(seed, spans, HOP_WALKER, THREAD_DAEMONS, round_robin, RING_WALKERS, passes, None)
}

pub const PAYLOAD_BYTES: usize = 4096;

pub fn payload_arg() -> Value {
    Value::str("x".repeat(PAYLOAD_BYTES))
}

fn payload_ring(seed: u64, smoke: bool, spans: &mut Spans) -> Box<dyn Armed> {
    let passes = if smoke { 1_000 } else { 40_000 };
    let payload = Some(payload_arg());
    walker_ring(seed, spans, PAYLOAD_WALKER, THREAD_DAEMONS, blocked, RING_WALKERS, passes, payload)
}

/// What `HOTLOOP_WALKER` leaves in `result`: the same float operations in
/// the same order (Rust never contracts them into fused multiply-adds).
pub fn hotloop_reference(passes: i64, iters: i64) -> f64 {
    let (cr, ci) = (0.0 - 0.1226, 0.7449);
    let mut acc = 0.0f64;
    for _ in 0..passes {
        let (mut zr, mut zi) = (0.0f64, 0.0f64);
        for _ in 0..iters {
            let t = zr * zr - zi * zi + cr;
            zi = 2.0 * zr * zi + ci;
            zr = t;
        }
        acc = acc + zr + zi;
    }
    acc
}

/// Inner-loop iterations per hop of `hotloop_ring`.
pub const HOTLOOP_ITERS: i64 = 8192;

fn hotloop_ring(seed: u64, smoke: bool, spans: &mut Spans) -> Box<dyn Armed> {
    // A multiple of the ring length, so each walker stops where it
    // started and every node holds exactly one `result`.
    let (passes, iters): (i64, i64) = if smoke { (16, 256) } else { (48, HOTLOOP_ITERS) };
    assert_eq!(passes as usize % RING_NODES, 0);
    let args = [Value::Int(passes), Value::Int(iters)];
    let hops = RING_WALKERS as u64 * passes as u64;
    script_job(
        seed,
        spans,
        ScriptSpec {
            script: HOTLOOP_WALKER,
            daemons: THREAD_DAEMONS,
            topo: &ring_topo(round_robin),
            injections: ring_injections(seed, RING_WALKERS, &args),
            expected: Expected {
                work: Work::CountedOps,
                hops,
                terminated: RING_WALKERS as u64,
                node_vars: vec![
                    Expect::IntSum {
                        var: "visits",
                        nodes: ring_nodes(),
                        total: RING_WALKERS as i64 * (passes + 1),
                    },
                    Expect::FloatEach {
                        var: "result",
                        nodes: ring_nodes(),
                        value: hotloop_reference(passes, iters),
                    },
                ],
            },
        },
    )
}

const SPOKES: usize = 8;

fn fanout_star(seed: u64, smoke: bool, spans: &mut Spans) -> Box<dyn Armed> {
    let (messengers, rounds): (u64, u32) = if smoke { (50, 2) } else { (1_000, 3) };
    let hub = Value::str("hub");
    let spokes: Vec<Value> = (0..SPOKES).map(|i| Value::str(format!("s{i}"))).collect();
    let mut topo = LogicalTopology::new();
    topo.node(hub.clone(), DaemonId(0));
    for s in &spokes {
        topo.node(s.clone(), DaemonId(1));
        topo.link(hub.clone(), s.clone(), Value::str("spoke"), Dir::Forward);
    }
    // Per injected messenger: round r sends 8^(r-1) hop statements out
    // (each replicating 8 ways) and 8^r back.
    let fan = SPOKES as u64;
    let leaves = fan.pow(rounds);
    let out_hops: u64 = (0..rounds).map(|r| fan.pow(r)).sum();
    let back_hops: u64 = (1..=rounds).map(|r| fan.pow(r)).sum();
    script_job(
        seed,
        spans,
        ScriptSpec {
            script: FANOUT_WALKER,
            daemons: THREAD_DAEMONS,
            topo: &topo,
            injections: (0..messengers)
                .map(|_| (hub.clone(), vec![Value::Int(i64::from(rounds))]))
                .collect(),
            expected: Expected {
                work: Work::Fixed(messengers * leaves),
                hops: messengers * (out_hops + back_hops),
                terminated: messengers * leaves,
                node_vars: vec![
                    Expect::IntSum {
                        var: "seen",
                        nodes: vec![hub],
                        total: (messengers * leaves) as i64,
                    },
                    Expect::IntSum {
                        var: "seen",
                        nodes: spokes,
                        total: (messengers * back_hops) as i64,
                    },
                ],
            },
        },
    )
}

// ---- the paper's applications ----

struct MandelThreadsJob {
    scene: MandelScene,
    images: u32,
    expected: u64,
    runs: Vec<mandel_msgr::MandelRun>,
}

/// Images rendered per repeat. One 1024² image in 64×64 blocks takes the
/// two daemons about a third of a second, so a repeat renders four; the
/// sequential reference image that checks them is part of set-up.
const MANDEL_IMAGES: u32 = 4;

fn mandel_threads(_seed: u64, smoke: bool, spans: &mut Spans) -> Box<dyn Armed> {
    let (scene, images) = if smoke {
        (MandelScene::paper(256, 8), 1)
    } else {
        (MandelScene::paper(1024, 16), MANDEL_IMAGES)
    };
    let expected = spans
        .scope("precompute", |_| MandelWork::checksum(&MandelWork::compute(scene).color_image()));
    Box::new(MandelThreadsJob { scene, images, expected, runs: Vec::new() })
}

impl Armed for MandelThreadsJob {
    fn run(&mut self, spans: &mut Spans) {
        spans.enter("run");
        for _ in 0..self.images {
            let run =
                mandel_msgr::run_threads(self.scene, THREAD_DAEMONS).expect("mandel threads run");
            self.runs.push(run);
        }
        spans.exit();
    }

    fn verify(&mut self, spans: &mut Spans) -> Outcome {
        spans.enter("readback");
        let pixels = u64::from(self.scene.size).pow(2) * u64::from(self.images);
        let mut out =
            Outcome { work: pixels, seq_equiv: f64::from(self.images), ..Outcome::default() };
        for run in self.runs.drain(..) {
            out.check(run.checksum == self.expected, || {
                format!("image checksum {:#x}, sequential {:#x}", run.checksum, self.expected)
            });
            // One worker per daemon, each retiring once the task pool is dry.
            let workers = run.stats.counter("terminated");
            out.check(workers == THREAD_DAEMONS as u64, || format!("{workers} workers retired"));
            out.stats.merge(&run.stats);
        }
        spans.exit();
        out
    }
}

pub const PAPER_PROCS: [usize; 6] = [1, 2, 4, 8, 16, 32];
const FIG4_GRIDS: [u32; 3] = [8, 16, 32];
const FIG12A_BLOCKS: [u32; 5] = [10, 20, 50, 100, 200];
const FIG12A_M: u32 = 2;

struct MandelFig {
    fig: &'static str,
    grid: u32,
    work: Arc<MandelWork>,
    expected: u64,
}

struct MatmulCase {
    scene: MatmulScene,
    a: Matrix,
    b: Matrix,
    reference: Matrix,
}

/// Simulated seconds of one figure cell under both systems.
#[derive(Debug, Clone, PartialEq)]
struct Cell {
    label: String,
    msgr_s: f64,
    pvm_s: f64,
    /// The paper's shape, where it states one: Fig. 4 has Messengers ahead
    /// of PVM from 4 processors up at every grid; Fig. 12(a) has PVM ahead
    /// at s <= 20 and Messengers at s >= 50.
    msgr_should_win: Option<bool>,
}

struct PaperFigsJob {
    seed: u64,
    sweeps: u32,
    /// The scenes are the paper's, so its Messengers-versus-PVM shape is
    /// checked; the smoke sizes are too small to show it.
    paper_sizes: bool,
    mandel: Vec<MandelFig>,
    matmul: Vec<MatmulCase>,
    procs: &'static [usize],
    out: Outcome,
    cells: Vec<Cell>,
}

fn paper_figs(seed: u64, smoke: bool, spans: &mut Spans) -> Box<dyn Armed> {
    spans.enter("precompute");
    let calib = Calib::default();
    let fig = |fig, size, grid| {
        let work = Arc::new(MandelWork::compute(MandelScene::paper(size, grid)));
        let (_, expected) = render_sequential(&work, &calib);
        MandelFig { fig, grid, work, expected }
    };
    let (small, large) = if smoke { (64, 128) } else { (320, 1280) };
    let mut mandel: Vec<MandelFig> = FIG4_GRIDS.iter().map(|&g| fig("fig4", small, g)).collect();
    mandel.push(fig("fig7", large, 8));
    let blocks: &[u32] = if smoke { &FIG12A_BLOCKS[..3] } else { &FIG12A_BLOCKS };
    let matmul = blocks
        .iter()
        .map(|&s| {
            let scene = MatmulScene::new(FIG12A_M, s);
            let (a, b) = (test_matrix(scene.n(), seed), test_matrix(scene.n(), seed + 1));
            let reference = multiply_reference(&a, &b);
            MatmulCase { scene, a, b, reference }
        })
        .collect();
    spans.exit();
    Box::new(PaperFigsJob {
        seed,
        sweeps: if smoke { 1 } else { 5 },
        paper_sizes: !smoke,
        mandel,
        matmul,
        procs: if smoke { &PAPER_PROCS[..4] } else { &PAPER_PROCS },
        out: Outcome::default(),
        cells: Vec::new(),
    })
}

impl PaperFigsJob {
    fn cfg(&self, daemons: usize) -> ClusterConfig {
        let mut cfg = ClusterConfig::new(daemons);
        cfg.seed = self.seed;
        cfg
    }

    /// Every figure cell once, under both systems.
    fn sweep(&mut self, spans: &mut Spans) -> Vec<Cell> {
        let calib = Calib::default();
        let mut cells = Vec::new();
        for f in &self.mandel {
            for &p in self.procs {
                let label = format!("{} grid {} procs {p}", f.fig, f.grid);
                let m = spans.scope("mandel_msgr", |_| {
                    mandel_msgr::run_sim(&f.work, p, &calib, self.cfg(p)).expect("messengers run")
                });
                let v = spans.scope("mandel_pvm", |_| {
                    mandel_pvm::run_sim(&f.work, p, &calib, PvmNet::Ethernet100).expect("pvm run")
                });
                for (system, checksum) in [("messengers", m.checksum), ("pvm", v.checksum)] {
                    self.out.check(checksum == f.expected, || format!("{label}: {system} image"));
                }
                self.out.stats.merge(&m.stats);
                self.out.pvm.merge(&v.stats);
                let msgr_should_win = (f.fig == "fig4" && p >= 4).then_some(true);
                cells.push(Cell { label, msgr_s: m.seconds, pvm_s: v.seconds, msgr_should_win });
            }
        }
        for c in &self.matmul {
            let procs = (c.scene.m * c.scene.m) as usize;
            let label = format!("fig12a s {}", c.scene.s);
            let m = spans.scope("matmul_msgr", |_| {
                matmul_msgr::run_sim(c.scene, &c.a, &c.b, &calib, self.cfg(procs))
                    .expect("messengers matmul")
            });
            let v = spans.scope("matmul_pvm", |_| {
                matmul_pvm::run_sim(c.scene, &c.a, &c.b, &calib, procs, PvmNet::Ethernet100, 1.0)
                    .expect("pvm matmul")
            });
            for (system, product) in [("messengers", &m.product), ("pvm", &v.product)] {
                let diff = max_abs_diff(product, &c.reference);
                self.out.check(diff < 1e-6, || format!("{label}: {system} product off by {diff}"));
            }
            self.out.stats.merge(&m.stats);
            self.out.pvm.merge(&v.stats);
            let msgr_should_win = Some(c.scene.s >= 50);
            cells.push(Cell { label, msgr_s: m.seconds, pvm_s: v.seconds, msgr_should_win });
        }
        cells
    }
}

impl Armed for PaperFigsJob {
    fn run(&mut self, spans: &mut Spans) {
        spans.enter("run");
        for _ in 0..self.sweeps {
            let cells = self.sweep(spans);
            if self.cells.is_empty() {
                self.cells = cells;
            } else {
                // The simulator is deterministic: a sweep repeats exactly.
                let same = cells == self.cells;
                self.out.check(same, || "a sweep's simulated times differ from the first".into());
            }
        }
        spans.exit();
    }

    fn verify(&mut self, spans: &mut Spans) -> Outcome {
        spans.enter("readback");
        let mut out = std::mem::take(&mut self.out);
        // Each cell ran under both systems: two simulated runs.
        out.work = 2 * self.cells.len() as u64 * u64::from(self.sweeps);
        out.sim.makespan_s = self.cells.iter().map(|c| c.msgr_s).sum();
        let log_ratio: f64 = self.cells.iter().map(|c| (c.msgr_s / c.pvm_s).ln()).sum();
        out.sim.msgr_over_pvm = (log_ratio / self.cells.len() as f64).exp();
        for c in self.cells.iter().filter(|_| self.paper_sizes) {
            if let Some(want) = c.msgr_should_win {
                out.check((c.msgr_s < c.pvm_s) == want, || {
                    format!("{}: messengers {} s, pvm {} s", c.label, c.msgr_s, c.pvm_s)
                });
            }
        }
        spans.exit();
        out
    }
}

const CHAOS_DAEMONS: usize = 8;
const CHAOS_VICTIM: u32 = 3;
const CHAOS_KILL_MS: [u64; 4] = [5, 20, 50, 100];
const CHAOS_SEEDS: u64 = 6;
const CHAOS_LOSS: f64 = 0.05;

struct ChaosJob {
    seed: u64,
    sweeps: u32,
    work: Arc<MandelWork>,
    expected: u64,
    out: Outcome,
    /// `(simulated seconds, recovery latency ns)` per run of one sweep.
    first: Vec<(f64, u64)>,
}

fn chaos_sim(seed: u64, smoke: bool, spans: &mut Spans) -> Box<dyn Armed> {
    let (work, expected) = spans.scope("precompute", |_| {
        let work = Arc::new(MandelWork::compute(MandelScene::paper(128, 8)));
        let (_, expected) = render_sequential(&work, &Calib::default());
        (work, expected)
    });
    Box::new(ChaosJob {
        seed,
        sweeps: if smoke { 1 } else { 20 },
        work,
        expected,
        out: Outcome::default(),
        first: Vec::new(),
    })
}

impl Armed for ChaosJob {
    fn run(&mut self, spans: &mut Spans) {
        spans.enter("run");
        let calib = Calib::default();
        for _ in 0..self.sweeps {
            let mut runs = Vec::new();
            for at_ms in CHAOS_KILL_MS {
                for s in self.seed..self.seed + CHAOS_SEEDS {
                    let mut cfg = ClusterConfig::new(CHAOS_DAEMONS);
                    cfg.seed = s;
                    cfg.faults = FaultPlan::lossy(CHAOS_LOSS);
                    cfg.faults.crashes.push(CrashEvent::kill(CHAOS_VICTIM, at_ms * MILLI));
                    let r = mandel_msgr::run_sim(&self.work, CHAOS_DAEMONS, &calib, cfg)
                        .expect("chaos run");
                    let label = format!("kill at {at_ms} ms, seed {s}");
                    self.out.check(r.checksum == self.expected, || format!("{label}: image"));
                    let restores = r.stats.counter("restores");
                    self.out.check(restores == 1, || format!("{label}: {restores} restores"));
                    let gave_up = r.stats.counter("xport_gave_up");
                    self.out.check(gave_up == 0, || format!("{label}: gave up {gave_up} frames"));
                    runs.push((r.seconds, r.stats.counter("recovery_latency_ns")));
                    self.out.stats.merge(&r.stats);
                }
            }
            if self.first.is_empty() {
                self.first = runs;
            } else {
                let same = runs == self.first;
                self.out.check(same, || "a sweep's simulated times differ from the first".into());
            }
        }
        spans.exit();
    }

    fn verify(&mut self, spans: &mut Spans) -> Outcome {
        spans.enter("readback");
        let mut out = std::mem::take(&mut self.out);
        out.work = self.first.len() as u64 * u64::from(self.sweeps);
        out.sim.makespan_s = self.first.iter().map(|r| r.0).sum();
        let mut latencies: Vec<f64> = self.first.iter().map(|r| r.1 as f64 / 1e6).collect();
        latencies.sort_by(f64::total_cmp);
        out.sim.recovery_ms_p50 = crate::stats::median(&latencies);
        out.sim.recovery_ms_max = latencies.last().copied().unwrap_or(0.0);
        spans.exit();
        out
    }
}

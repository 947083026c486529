//! Per-layer probes: calibrated single-threaded loops around public
//! calls of each crate, each inside a span named after the metric.
//!
//! A probe calibrates an iteration count whose loop lasts about
//! `sample_s`, then takes `SAMPLES` samples of it and reports the median
//! per iteration. Probes whose one call is a whole cluster run (the hop
//! and wake probes) run once per sample.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

use msgr_apps::mandel::mandel_iters;
use msgr_apps::matmul::{multiply_accumulate, test_matrix};
use msgr_apps::{mandel_msgr, matmul_msgr};
use msgr_core::{ClusterConfig, SimCluster, SimReport, ThreadCluster, TraceConfig};
use msgr_ctrl::quorum::{Decree, InstanceId, Quorum};
use msgr_gvt::{Coordinator, CoordinatorAction, CtrlMsg, Participant, Vt};
use msgr_prof::Profile;
use msgr_pvm::buf::Buf;
use msgr_sim::Engine;
use msgr_trace::Trace;
use msgr_vm::interp::DEFAULT_FUEL;
use msgr_vm::wire::{decode_messenger, encode_messenger};
use msgr_vm::{compile, interp, MapEnv, MessengerId, MessengerState, Program, Value, Yield};

use crate::spans::Spans;
use crate::stats::Summary;
use crate::workloads::{
    payload_arg, ring_injections, ring_topo, walker_ring, FANOUT_WALKER, HOP_WALKER, HOTLOOP_ITERS,
    HOTLOOP_WALKER, PAYLOAD_WALKER, RING_NODES,
};

const SAMPLES: usize = 5;

/// A probe's value, and for a ratio of host timings its two bases.
pub type Rows = BTreeMap<&'static str, (Summary, String)>;

struct Prober<'a> {
    spans: &'a mut Spans,
    sample_s: f64,
    rows: Rows,
}

/// Time `n` calls of `f`.
fn timed<T>(n: u64, mut f: impl FnMut() -> T) -> Duration {
    let t = Instant::now();
    for _ in 0..n {
        black_box(f());
    }
    t.elapsed()
}

impl Prober<'_> {
    /// Nanoseconds per unit, where `body(spans, n)` performs `n`
    /// iterations of `units` units each and returns the time to count.
    fn measure(
        &mut self,
        name: &'static str,
        units: f64,
        mut body: impl FnMut(&mut Spans, u64) -> Duration,
    ) -> Summary {
        self.spans.enter(name);
        let mut n = 1u64;
        loop {
            let t = body(self.spans, n).as_secs_f64();
            if t >= self.sample_s || n >= 1 << 28 {
                break;
            }
            let scale = (self.sample_s / t.max(1e-9) * 1.1).clamp(2.0, 64.0);
            n = (n as f64 * scale).ceil() as u64;
        }
        let samples: Vec<f64> = (0..SAMPLES)
            .map(|_| body(self.spans, n).as_nanos() as f64 / (n as f64 * units))
            .collect();
        self.spans.exit();
        let s = Summary::of(&samples);
        self.rows.insert(name, (s, String::new()));
        s
    }

    fn put(&mut self, name: &'static str, s: Summary, note: String) {
        self.rows.insert(name, (s, note));
    }
}

/// The scripts the front-end probes chew on: the paper's Fig. 3 and
/// Fig. 11 programs and the four benchmark walkers.
const CORPUS: [&str; 6] = [
    mandel_msgr::MANAGER_WORKER_SCRIPT,
    matmul_msgr::MATMUL_SCRIPTS,
    HOP_WALKER,
    PAYLOAD_WALKER,
    HOTLOOP_WALKER,
    FANOUT_WALKER,
];

fn compile_script(src: &str) -> Program {
    msgr_lang::compile(src).expect("corpus script compiles")
}

/// Launch `program` and run it under the interpreter to its first hop:
/// the state a daemon would put on the wire.
fn state_at_first_hop(program: &Program, args: &[Value]) -> (MessengerState, u64) {
    let mut m = MessengerState::launch(program, MessengerId(1), args).expect("launch");
    let mut env = MapEnv::new();
    let y = interp::run(program, &mut m, &mut env, DEFAULT_FUEL).expect("first segment");
    assert!(matches!(y, Yield::Hop(_)), "walker did not reach its hop");
    (m, env.ops)
}

/// One small ring on the sim platform: 4 daemons, every hop remote.
fn sim_ring(program: &Program, passes: i64, traced: bool) -> (Duration, SimReport) {
    let mut cfg = ClusterConfig::new(4);
    if traced {
        cfg.trace = TraceConfig::on();
        cfg.profile = true;
    }
    let mut cluster = SimCluster::new(cfg);
    let pid = cluster.register_program(program);
    cluster.build(&ring_topo(|i| i % 4)).expect("sim ring builds");
    for (node, args) in ring_injections(0, RING_NODES, &[Value::Int(passes)]) {
        cluster.inject_at(&node, pid, &args).expect("inject");
    }
    let t = Instant::now();
    let report = cluster.run().expect("sim ring runs");
    let elapsed = t.elapsed();
    assert!(report.faults.is_empty(), "sim ring faults: {:?}", report.faults);
    (elapsed, report)
}

/// Drive one burial decree to decision across five `Quorum` machines,
/// delivering every message in FIFO order.
fn decide_one_decree() {
    const N: u16 = 5;
    const VICTIM: u16 = 4;
    let mut machines: Vec<Quorum> = (0..N).map(|id| Quorum::new(id, N)).collect();
    let inst = InstanceId { victim: VICTIM, seq: 0 };
    let decree = Decree { victim: VICTIM, successor: 0, epoch: 1 };
    let mut wire: VecDeque<(u16, u16, _)> =
        machines[0].propose(inst, decree).send.into_iter().map(|(to, m)| (0, to, m)).collect();
    while let Some((from, to, msg)) = wire.pop_front() {
        if to == VICTIM {
            continue;
        }
        let step = machines[to as usize].deliver(from, msg);
        wire.extend(step.send.into_iter().map(|(dst, m)| (to, dst, m)));
    }
    assert_eq!(machines[0].decided(inst), Some(decree), "decree not decided");
}

/// Run every probe. `budget_s` bounds the total; `seed` only rotates the
/// ring walkers' start nodes.
pub fn run_all(spans: &mut Spans, budget_s: f64, seed: u64) -> Rows {
    // About 40 measured loops, each calibrated and then sampled.
    let sample_s = budget_s / (40.0 * (SAMPLES as f64 + 2.0));
    let mut p = Prober { spans, sample_s, rows: Rows::new() };

    // ---- lang, analyze ----
    let programs: Vec<Program> = CORPUS.iter().map(|s| compile_script(s)).collect();
    p.measure("lang.compile_ns", 1.0, |_, n| {
        timed(n, || CORPUS.iter().map(|s| compile_script(s)).collect::<Vec<_>>())
    });
    let tokens: usize =
        CORPUS.iter().map(|s| msgr_lang::tokenize(s).expect("corpus lexes").len()).sum();
    let ns_per_token = p.measure("lang.tokens_per_s", tokens as f64, |_, n| {
        timed(n, || CORPUS.iter().map(|s| msgr_lang::tokenize(s)).collect::<Vec<_>>())
    });
    p.put("lang.tokens_per_s", ns_per_token.inverted(|ns| 1e9 / ns), String::new());
    let ops: usize = programs.iter().flat_map(|pr| &pr.funcs).map(|f| f.code.len()).sum();
    p.put("lang.bytecode_ops", Summary::exact(ops as f64), String::new());
    p.measure("analyze.verify_ns", 1.0, |_, n| {
        timed(n, || programs.iter().map(msgr_analyze::verify).collect::<Vec<_>>())
    });
    p.measure("analyze.analyze_ns", 1.0, |_, n| {
        timed(n, || programs.iter().map(msgr_analyze::analyze).collect::<Vec<_>>())
    });

    // ---- vm: engines over the hot-loop body ----
    let hotloop = compile_script(HOTLOOP_WALKER);
    let hot_args = [Value::Int(1), Value::Int(HOTLOOP_ITERS)];
    let (_, hot_ops) = state_at_first_hop(&hotloop, &hot_args);
    let launch_hot =
        || MessengerState::launch(&hotloop, MessengerId(1), &hot_args).expect("launch");
    p.measure("vm.interp_ns_per_op", hot_ops as f64, |_, n| {
        timed(n, || {
            interp::run(&hotloop, &mut launch_hot(), &mut MapEnv::new(), DEFAULT_FUEL)
                .expect("interp")
        })
    });
    let compiled = compile::compile(&hotloop).expect("closure compile");
    let summaries = msgr_analyze::summarize(&hotloop);
    let with_summaries =
        compile::compile_with_summaries(&hotloop, Some(&summaries)).expect("closure compile");
    for (name, cp) in
        [("vm.compiled_ns_per_op", &compiled), ("vm.summaries_ns_per_op", &with_summaries)]
    {
        p.measure(name, hot_ops as f64, |_, n| {
            timed(n, || {
                compile::run(cp, &hotloop, &mut launch_hot(), &mut MapEnv::new(), DEFAULT_FUEL)
                    .expect("compiled run")
            })
        });
    }
    p.measure("vm.closure_compile_ns", 1.0, |_, n| timed(n, || compile::compile(&hotloop)));
    p.measure("vm.launch_ns", 1.0, |_, n| timed(n, launch_hot));

    // ---- vm: the state codec at both payload sizes ----
    let hop_walker = compile_script(HOP_WALKER);
    let payload_walker = compile_script(PAYLOAD_WALKER);
    let (small, _) = state_at_first_hop(&hop_walker, &[Value::Int(8)]);
    let (large, _) = state_at_first_hop(&payload_walker, &[Value::Int(8), payload_arg()]);
    for (state, encode, decode, bytes) in [
        (&small, "vm.encode_ns_small", "vm.decode_ns_small", "vm.state_bytes_small"),
        (&large, "vm.encode_ns_4k", "vm.decode_ns_4k", "vm.state_bytes_4k"),
    ] {
        let wire = encode_messenger(state);
        assert_eq!(&decode_messenger(wire.clone()).expect("decode"), state, "codec round trip");
        p.put(bytes, Summary::exact(wire.len() as f64), String::new());
        p.measure(encode, 1.0, |_, n| timed(n, || encode_messenger(state)));
        p.measure(decode, 1.0, |_, n| timed(n, || decode_messenger(wire.clone())));
    }

    // ---- core: the cluster set-up calls ----
    let fresh = || ThreadCluster::new(ClusterConfig::new(1)).expect("threads cluster");
    let one_daemon = ring_topo(|_| 0);
    // Each call needs a cluster of its own (a second registration is a
    // cache hit), so only the call itself is on the clock.
    let per_fresh_cluster = |n: u64, call: &mut dyn FnMut(&mut ThreadCluster)| {
        let mut total = Duration::ZERO;
        for _ in 0..n {
            let mut cluster = fresh();
            let t = Instant::now();
            call(&mut cluster);
            total += t.elapsed();
        }
        total
    };
    p.measure("core.register_ns", 1.0, |_, n| {
        per_fresh_cluster(n, &mut |c| {
            black_box(c.register_program(&hotloop));
        })
    });
    p.measure("core.build_ns_per_node", RING_NODES as f64, |_, n| {
        per_fresh_cluster(n, &mut |c| c.build(&one_daemon).expect("build"))
    });
    let injections = ring_injections(seed, RING_NODES, &[Value::Int(1)]);
    p.measure("core.inject_ns", RING_NODES as f64, |_, n| {
        let mut total = Duration::ZERO;
        for _ in 0..n {
            let mut cluster = fresh();
            let pid = cluster.register_program(&hop_walker);
            cluster.build(&one_daemon).expect("build");
            let t = Instant::now();
            for (node, args) in &injections {
                cluster.inject_at(node, pid, args).expect("inject");
            }
            total += t.elapsed();
        }
        total
    });

    // ---- core: hop cost without and with the cross-thread wake ----
    // A run of a verified ring job; only `run` is on the clock.
    let ring_run = |spans: &mut Spans,
                    script: &'static str,
                    daemons: usize,
                    place: fn(usize) -> usize,
                    walkers: usize,
                    passes: i64,
                    extra: Option<Value>| {
        let mut job = walker_ring(seed, spans, script, daemons, place, walkers, passes, extra);
        let t = Instant::now();
        job.run(spans);
        let elapsed = t.elapsed();
        let out = job.verify(spans);
        assert!(out.failures.is_empty(), "probe ring failed: {:?}", out.failures);
        elapsed
    };
    // Thread spawn, quiescence poll and join: what every run pays once,
    // taken off the ring runs below.
    let spawn_join = p.measure("core.threads.spawn_join_ns", 1.0, |spans, n| {
        (0..n).map(|_| ring_run(spans, HOP_WALKER, 2, |_| 0, 1, 0, None)).sum()
    });
    let fixed = Duration::from_nanos(spawn_join.median as u64);
    // All 16 walkers on one daemon: dispatch and codec, no wake-up.
    let (walkers, passes) = (RING_NODES, 500);
    let hop = p.measure("core.daemon.hop_ns", (walkers as i64 * passes) as f64, |spans, n| {
        (0..n)
            .map(|_| ring_run(spans, HOP_WALKER, 1, |_| 0, walkers, passes, None))
            .sum::<Duration>()
            .saturating_sub(fixed * n as u32)
    });
    let passes_4k = 250;
    p.measure("core.daemon.hop_ns_4k", (walkers as i64 * passes_4k) as f64, |spans, n| {
        (0..n)
            .map(|_| {
                let payload = Some(payload_arg());
                ring_run(spans, PAYLOAD_WALKER, 1, |_| 0, walkers, passes_4k, payload)
            })
            .sum::<Duration>()
            .saturating_sub(fixed * n as u32)
    });
    // One walker bouncing between two daemons: every hop finds the
    // receiving thread asleep.
    let bounces = 400;
    let bounce = p.measure("core.threads.wake_ns", bounces as f64, |spans, n| {
        (0..n)
            .map(|_| ring_run(spans, HOP_WALKER, 2, |i| i % 2, 1, bounces, None))
            .sum::<Duration>()
            .saturating_sub(fixed * n as u32)
    });
    p.put(
        "core.threads.wake_ns",
        bounce.mapped(|v| v - hop.median),
        format!("bounce {:.0} ns/hop less core.daemon.hop_ns {:.0}", bounce.median, hop.median),
    );

    // ---- core on sim, trace, prof: one small ring, plain and traced ----
    let sim_passes = 25;
    let sim_hops = (RING_NODES as i64 * sim_passes) as f64;
    let mut events = 0;
    let plain = p.measure("core.sim.hop_host_ns", sim_hops, |_, n| {
        (0..n)
            .map(|_| {
                let (elapsed, report) = sim_ring(&hop_walker, sim_passes, false);
                events = report.events;
                elapsed
            })
            .sum()
    });
    p.put("core.sim.events_per_hop", Summary::exact(events as f64 / sim_hops), String::new());
    let mut trace = Trace::default();
    let traced = p.measure("trace.run_overhead_frac", sim_hops, |_, n| {
        (0..n)
            .map(|_| {
                let (elapsed, report) = sim_ring(&hop_walker, sim_passes, true);
                trace = report.trace.expect("tracing was on");
                elapsed
            })
            .sum()
    });
    p.put(
        "trace.run_overhead_frac",
        traced.mapped(|ns| ns / plain.median - 1.0),
        format!("traced {:.0} over plain {:.0} ns/hop, less 1", traced.median, plain.median),
    );
    assert_eq!(trace.dropped, 0, "probe trace overflowed its ring");
    let n_events = trace.events.len() as f64;
    let jsonl = trace.to_jsonl();
    p.measure("trace.to_jsonl_ns_per_event", n_events, |_, n| timed(n, || trace.to_jsonl()));
    p.measure("trace.from_jsonl_ns_per_event", n_events, |_, n| {
        timed(n, || Trace::from_jsonl(&jsonl).expect("trace parses back"))
    });
    assert!(!Profile::from_trace(&trace).is_empty(), "profiled run left no ledgers");
    p.measure("prof.from_trace_ns_per_event", n_events, |_, n| {
        timed(n, || Profile::from_trace(&trace))
    });

    // ---- sim, gvt, ctrl: the protocol cores on their own ----
    let batch = 1000u64;
    let ns_per_event = p.measure("sim.engine.events_per_s", batch as f64, |_, n| {
        timed(n, || {
            let mut engine: Engine<u64> = Engine::new();
            for t in 0..batch {
                engine.schedule_at(t, |_, fired| *fired += 1);
            }
            let mut fired = 0;
            engine.run(&mut fired);
            fired
        })
    });
    p.put("sim.engine.events_per_s", ns_per_event.inverted(|ns| 1e9 / ns), String::new());
    let mut coordinator = Coordinator::new(32);
    let mut participants: Vec<Participant> = (0..32).map(Participant::new).collect();
    p.measure("gvt.round_ns_32", 1.0, |_, n| {
        timed(n, || {
            let Some(CtrlMsg::Cut { round }) = coordinator.begin_round() else {
                panic!("a round is still open");
            };
            let mut advanced = None;
            for part in &mut participants {
                let ack = part.on_cut(round, Vt::new(1.0));
                if let CoordinatorAction::Advance { gvt } = coordinator.on_ack(&ack) {
                    advanced = Some(gvt);
                }
            }
            let gvt = advanced.expect("round closes on the last ack");
            participants.iter_mut().for_each(|part| part.on_advance(gvt));
        })
    });
    p.measure("ctrl.decree_ns_5", 1.0, |_, n| timed(n, decide_one_decree));

    // ---- pvm, apps: the baseline's buffer and the real kernels ----
    let block = vec![7u8; 4096];
    p.measure("pvm.pack_unpack_ns_4k", 1.0, |_, n| {
        timed(n, || {
            let mut buf = Buf::new();
            buf.pack_bytes(&block);
            buf.unpack_bytes().expect("unpack")
        })
    });
    // An interior point: the kernel runs all 512 iterations.
    p.measure("apps.mandel_kernel_ns_per_iter", 512.0, |_, n| {
        timed(n, || mandel_iters(black_box(-0.1), black_box(0.0), 512))
    });
    let (a, b) = (test_matrix(64, 1), test_matrix(64, 2));
    let mut c = msgr_vm::Matrix::zeros(64, 64);
    p.measure("apps.block_multiply_ns_64", 1.0, |_, n| {
        timed(n, || multiply_accumulate(&mut c, &a, &b))
    });

    p.rows
}

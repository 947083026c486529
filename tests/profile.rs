//! End-to-end guarantees of the cost-attribution profiler.
//!
//! Profiling is opt-in pure bookkeeping: with `ClusterConfig::profile`
//! off the run is byte-for-byte the run that existed before the
//! profiler; with it on, the simulation is untouched and the only
//! difference is extra `phase_ledger` / `pc_sample` events riding the
//! trace stream. These tests pin all of that, plus the determinism and
//! fraction-sum invariants the `msgr profile` report relies on.

use messengers::core::topology::LogicalTopology;
use messengers::core::{ClusterConfig, DaemonId, SimCluster, ThreadCluster, TraceConfig};
use messengers::prof::Profile;
use messengers::trace::{EventKind, Trace};
use messengers::vm::{Dir, Value};

/// Inner-loop trips per pass: several sampling intervals (4096 ops) long,
/// so every segment yields pc samples.
const ITERS: i64 = 4096;

/// A ring walker with an inner loop hot enough to trip the pc sampler.
const WALK: &str = r#"
walk(passes, iters) {
    int i = 0;
    int k;
    float acc = 0.0;
    node int visits;
    visits = visits + 1;
    while (i < passes) {
        k = 0;
        while (k < iters) {
            acc = acc + 1.5;
            k = k + 1;
        }
        hop(ll = "ring"; ldir = +);
        visits = visits + 1;
        i = i + 1;
    }
}
"#;

fn ring(nodes: usize, daemons: usize) -> LogicalTopology {
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
    topo
}

fn cfg(profile: bool) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(4);
    cfg.seed = 42;
    cfg.trace = TraceConfig::on();
    cfg.profile = profile;
    cfg
}

/// Run the walker on the sim platform and return the merged trace, the
/// simulated clock, and every node's `visits`.
fn run_sim(profile: bool) -> (Trace, f64, Vec<Option<Value>>) {
    let mut cluster = SimCluster::new(cfg(profile));
    cluster.build(&ring(8, 4)).expect("build ring");
    let pid = cluster.register_program(&messengers::lang::compile(WALK).expect("compile"));
    for m in 0..4 {
        cluster
            .inject_at(&Value::str(format!("p{m}")), pid, &[Value::Int(6), Value::Int(ITERS)])
            .expect("inject");
    }
    let rep = cluster.run().expect("run");
    assert!(rep.faults.is_empty(), "faults: {:?}", rep.faults);
    let visits =
        (0..8).map(|i| cluster.node_var_by_name(&Value::str(format!("p{i}")), "visits")).collect();
    (rep.trace.expect("tracing on"), rep.seconds, visits)
}

#[test]
fn profiled_runs_are_deterministic_to_the_byte() {
    let (ta, ..) = run_sim(true);
    let (tb, ..) = run_sim(true);
    assert_eq!(ta.to_jsonl(), tb.to_jsonl(), "same-seed profiled traces must be byte-identical");
    let (pa, pb) = (Profile::from_trace(&ta), Profile::from_trace(&tb));
    assert!(!pa.is_empty(), "profiled run produced no profiler events");
    assert_eq!(pa.report(), pb.report(), "profile reports must be byte-identical");
    assert_eq!(pa.critical_path(), pb.critical_path());
    assert_eq!(pa.folded(), pb.folded());
}

#[test]
fn profiling_off_is_the_status_quo_and_on_only_adds_events() {
    // Off twice: byte-identical (the pre-profiler behavior).
    let (off_a, secs_a, visits_a) = run_sim(false);
    let (off_b, ..) = run_sim(false);
    assert_eq!(off_a.to_jsonl(), off_b.to_jsonl());
    assert!(
        Profile::from_trace(&off_a).is_empty(),
        "profiler events leaked into an unprofiled trace"
    );

    // On: the simulation itself must not move (profiling charges nothing
    // to the cost model), and the event stream minus the profiler's own
    // kinds is the unprofiled stream.
    let (on, secs_on, visits_on) = run_sim(true);
    assert_eq!(secs_a.to_bits(), secs_on.to_bits(), "profiling moved the simulated clock");
    assert_eq!(visits_a, visits_on, "profiling moved the node variables");
    let is_prof = |e: &&messengers::trace::TraceEvent| {
        matches!(e.kind, EventKind::PhaseLedger { .. } | EventKind::PcSample { .. })
    };
    let off_kinds: Vec<&'static str> = off_a.events.iter().map(|e| e.kind.name()).collect();
    let on_kinds: Vec<&'static str> =
        on.events.iter().filter(|e| !is_prof(e)).map(|e| e.kind.name()).collect();
    assert_eq!(off_kinds, on_kinds, "profiling perturbed the non-profiler event stream");
}

#[test]
fn every_ledger_total_is_its_phase_sum() {
    // The fraction-sum acceptance invariant, checked per ledger on a
    // real run: `total` is exactly the phase sum, so the report's
    // fractions sum to 1 by construction.
    let (t, ..) = run_sim(true);
    let p = Profile::from_trace(&t);
    assert!(!p.ledgers.is_empty(), "no full ledgers");
    assert!(!p.samples.is_empty(), "no pc samples (interval too coarse for the workload?)");
    for l in p.ledgers.iter().chain(&p.forks) {
        assert_eq!(
            l.phases.iter().sum::<u64>(),
            l.total,
            "ledger mid={} born={} parent={} breaks total = sum(phases)",
            l.mid,
            l.born,
            l.parent
        );
    }
    assert_eq!(p.phase_totals().iter().sum::<u64>(), p.attributed_total());
    // And the critical path exists and terminates in a real ledger.
    let chain = p.critical_chain();
    assert!(!chain.is_empty(), "no critical path on a profiled run");
    assert!(chain.iter().all(|(l, _)| l.total > 0));
}

#[test]
fn threads_platform_profiles_on_the_monotonic_clock() {
    // The threads platform has no simulated clock; ledgers come from the
    // process monotonic clock instead. Values are nondeterministic, but
    // the structural invariants still hold.
    let mut c = cfg(true);
    c.trace = TraceConfig::default(); // platform forces tracing on for profiled runs
    let mut cluster = ThreadCluster::new(c).expect("threads cluster");
    cluster.build(&ring(8, 4)).expect("build ring");
    let pid = cluster.register_program(&messengers::lang::compile(WALK).expect("compile"));
    for m in 0..4 {
        cluster
            .inject_at(&Value::str(format!("p{m}")), pid, &[Value::Int(4), Value::Int(ITERS)])
            .expect("inject");
    }
    let rep = cluster.run().expect("run");
    assert!(rep.faults.is_empty(), "faults: {:?}", rep.faults);
    let p = Profile::from_trace(&rep.trace.expect("profiling implies tracing"));
    assert!(!p.ledgers.is_empty(), "no ledgers on the threads platform");
    for l in p.ledgers.iter().chain(&p.forks) {
        assert_eq!(l.phases.iter().sum::<u64>(), l.total);
        assert_eq!(l.phases[4], 0, "threads platform cannot attribute transport in-flight time");
    }
}

#[test]
fn a_stranded_messenger_still_hands_in_its_ledger() {
    // A sleeper parks on virtual time at a node it created; a second
    // messenger then burns the node's only link while leaving over it,
    // so the singleton is collected with the sleeper still parked there.
    // The sleeper's ledger must reach the trace like any other death's.
    const STRAND: &str = r#"
    main(who) {
        if (who == 0) {
            create(ln = "out"; ll = "cord"; dn = 1);
            M_sched_time_abs(50.0);
        } else {
            M_sched_time_abs(1.0);   /* until the sleeper has parked */
            hop(ll = "cord");
            delete(ll = "cord");
        }
    }
    "#;
    let mut cluster = SimCluster::new(cfg(true));
    let pid = cluster.register_program(&messengers::lang::compile(STRAND).expect("compile"));
    for who in 0..2 {
        cluster.inject(0, pid, &[Value::Int(who)]).expect("inject");
    }
    let rep = cluster.run().expect("run");
    assert!(rep.faults.is_empty(), "faults: {:?}", rep.faults);
    assert_eq!(rep.live_leak, 0);
    assert_eq!(rep.stats.counter("stranded_killed"), 1, "the delete hop strands the sleeper");
    let trace = rep.trace.expect("tracing on");
    let sleeper = trace
        .events
        .iter()
        .find_map(|e| match e.kind {
            EventKind::MsgrPark { mid, wake } if wake > 1.0 => Some(mid),
            _ => None,
        })
        .expect("the sleeper parked");
    let ledgers = trace
        .events
        .iter()
        .filter(
            |e| matches!(e.kind, EventKind::PhaseLedger { mid, parent: 0, .. } if mid == sleeper),
        )
        .count();
    assert_eq!(ledgers, 1, "a stranded messenger yields exactly one phase_ledger");
}
